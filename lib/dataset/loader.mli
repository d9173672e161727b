(** TSV persistence so a user can bring a real corpus (or export the
    synthetic one). Two files: authors ("id, name, area, h_index") and
    papers ("id, title, venue, year, author ids ';'-separated,
    abstract"). Tabs inside free text are replaced by spaces on save;
    CRLF line endings are accepted on load.

    Two loading disciplines cover the two failure stories at this
    boundary. {!load} is strict: the first malformed or inconsistent
    line aborts with a message naming the file and line. {!load_lenient}
    is the salvage path for real-world exports: malformed rows are
    skipped, dangling references dropped, surviving ids remapped to the
    dense range the rest of the library assumes — and every repair is
    reported as an {!issue} so nothing is silently discarded. *)

val save : Corpus.t -> authors_path:string -> papers_path:string -> unit

val fold_lines : string -> init:'a -> f:('a -> string -> 'a) -> 'a
(** Fold [f] over a file's lines in order, reading through one fixed
    64 KiB buffer — memory is bounded by the chunk plus the longest
    single line, never the file. CRLF endings are stripped; a final
    unterminated line still counts. Every loader entry point reads
    through this, and it is the intended way to stream the [huge]
    synthetic preset ({!Synthetic.write_preset_tsv}) without ever
    holding ~10^6 rows at once. Raises [Sys_error] if the file is
    unreadable, and re-raises whatever [f] raises. *)

val load :
  authors_path:string -> papers_path:string -> (Corpus.t, string) result
(** Strict load. Any parse error, out-of-order id, or reference to an
    unknown author is reported with its file and line number; an
    unreadable file becomes [Error] rather than an exception. *)

type issue = { file : string; line : int; message : string }
(** One skipped or repaired row: [file] is ["authors"] or ["papers"],
    [line] the 1-based source line. *)

val pp_issue : Format.formatter -> issue -> unit

val load_lenient :
  authors_path:string ->
  papers_path:string ->
  (Corpus.t * issue list, string) result
(** Best-effort load: skip rows that do not parse, drop duplicate ids
    (first occurrence wins) and references to missing authors, drop
    papers left with no resolvable author, then remap all surviving ids
    to dense [0..n-1] in file order. The issue list records every
    dropped or altered row, in file order. [Error] only when a file is
    unreadable or nothing salvageable remains. *)
