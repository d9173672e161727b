let sanitize s =
  String.map (fun c -> if c = '\t' || c = '\n' || c = '\r' then ' ' else c) s

let save corpus ~authors_path ~papers_path =
  let oc = open_out authors_path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Array.iter
        (fun a ->
          Printf.fprintf oc "%d\t%s\t%s\t%d\n" a.Corpus.author_id
            (sanitize a.Corpus.name)
            (Corpus.area_name a.Corpus.area)
            a.Corpus.h_index)
        corpus.Corpus.authors);
  let oc = open_out papers_path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Array.iter
        (fun p ->
          Printf.fprintf oc "%d\t%s\t%s\t%d\t%s\t%s\n" p.Corpus.paper_id
            (sanitize p.Corpus.title) p.Corpus.venue p.Corpus.year
            (String.concat ";" (List.map string_of_int p.Corpus.author_ids))
            (sanitize p.Corpus.abstract))
        corpus.Corpus.papers)

(* Files written on Windows arrive with CRLF endings; a stray '\r' in
   the last field would otherwise corrupt the h-index / abstract. *)
let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

(* Chunked streaming reader: one fixed 64 KiB buffer plus the current
   (partial) line — never the whole file. This is what lets the ~10^6
   reviewer synthetic preset flow through without ever fitting anything
   proportional to the file in memory. *)
let chunk_bytes = 65536

let fold_lines path ~init ~f =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let buf = Bytes.create chunk_bytes in
  let partial = Buffer.create 256 in
  let acc = ref init in
  let flush_line () =
    let line = strip_cr (Buffer.contents partial) in
    Buffer.clear partial;
    acc := f !acc line
  in
  let rec pump () =
    let n = input ic buf 0 chunk_bytes in
    if n > 0 then begin
      let start = ref 0 in
      for i = 0 to n - 1 do
        if Bytes.get buf i = '\n' then begin
          Buffer.add_subbytes partial buf !start (i - !start);
          flush_line ();
          start := i + 1
        end
      done;
      Buffer.add_subbytes partial buf !start (n - !start);
      pump ()
    end
  in
  pump ();
  (* an unterminated final line still counts, as input_line would *)
  if Buffer.length partial > 0 then flush_line ();
  !acc

let read_lines path =
  List.rev (fold_lines path ~init:[] ~f:(fun acc line -> line :: acc))

let ( let* ) = Result.bind

let parse_author line =
  match String.split_on_char '\t' line with
  | [ id; name; area; h ] -> (
      match (int_of_string_opt id, Corpus.area_of_name area, int_of_string_opt h) with
      | Some author_id, Ok area, Some h_index ->
          Ok { Corpus.author_id; name; area; h_index }
      | _ -> Error "bad field")
  | _ -> Error "expected 4 fields"

let parse_paper line =
  match String.split_on_char '\t' line with
  | [ id; title; venue; year; author_ids; abstract ] -> (
      let ids =
        String.split_on_char ';' author_ids
        |> List.filter (fun s -> s <> "")
        |> List.map int_of_string_opt
      in
      match (int_of_string_opt id, int_of_string_opt year) with
      | Some paper_id, Some year when List.for_all Option.is_some ids ->
          Ok
            {
              Corpus.paper_id;
              title;
              venue;
              year;
              author_ids = List.map Option.get ids;
              abstract;
            }
      | _ -> Error "bad field")
  | _ -> Error "expected 6 fields"

(* Parse every non-empty line, keeping the 1-based line number of each
   item so later cross-reference checks can point at the source. *)
let parse_all ~file parse lines =
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | "" :: rest -> go (lineno + 1) acc rest
    | line :: rest -> (
        match parse line with
        | Ok item -> go (lineno + 1) ((lineno, item) :: acc) rest
        | Error msg -> Error (Printf.sprintf "%s line %d: %s" file lineno msg))
  in
  go 1 [] lines

(* Strict-mode structural checks, phrased with line numbers rather than
   array indices (contrast {!Corpus.validate}, which sees no file). *)
let check_authors authors =
  let rec go expected = function
    | [] -> Ok ()
    | (lineno, a) :: rest ->
        if a.Corpus.author_id <> expected then
          Error
            (Printf.sprintf "authors line %d: id %d out of order (expected %d)"
               lineno a.Corpus.author_id expected)
        else go (expected + 1) rest
  in
  go 0 authors

let check_papers ~n_authors papers =
  let rec go expected = function
    | [] -> Ok ()
    | (lineno, p) :: rest ->
        if p.Corpus.paper_id <> expected then
          Error
            (Printf.sprintf "papers line %d: id %d out of order (expected %d)"
               lineno p.Corpus.paper_id expected)
        else if p.Corpus.author_ids = [] then
          Error (Printf.sprintf "papers line %d: no authors" lineno)
        else begin
          match List.find_opt (fun a -> a < 0 || a >= n_authors) p.Corpus.author_ids with
          | Some a ->
              Error
                (Printf.sprintf
                   "papers line %d: references unknown author id %d" lineno a)
          | None -> go (expected + 1) rest
        end
  in
  go 0 papers

let load ~authors_path ~papers_path =
  match
    let* authors = parse_all ~file:"authors" parse_author (read_lines authors_path) in
    let* papers = parse_all ~file:"papers" parse_paper (read_lines papers_path) in
    let* () = check_authors authors in
    let* () = check_papers ~n_authors:(List.length authors) papers in
    let corpus =
      {
        Corpus.authors = Array.of_list (List.map snd authors);
        papers = Array.of_list (List.map snd papers);
      }
    in
    let* () = Corpus.validate corpus in
    Ok corpus
  with
  | result -> result
  | exception Sys_error msg -> Error msg

type issue = { file : string; line : int; message : string }

let pp_issue ppf i = Format.fprintf ppf "%s line %d: %s" i.file i.line i.message

(* Lenient mode: parse what parses, drop (and report) what does not,
   and remap surviving ids to the dense 0..n-1 range {!Corpus.validate}
   demands. Row order in the file decides the new ids. *)
let load_lenient ~authors_path ~papers_path =
  match
    let issues = ref [] in
    let flag file line message = issues := { file; line; message } :: !issues in
    let collect file parse lines =
      let rec go lineno acc = function
        | [] -> List.rev acc
        | "" :: rest -> go (lineno + 1) acc rest
        | line :: rest ->
            (match parse line with
            | Ok item -> go (lineno + 1) ((lineno, item) :: acc) rest
            | Error msg ->
                flag file lineno msg;
                go (lineno + 1) acc rest)
      in
      go 1 [] lines
    in
    let raw_authors = collect "authors" parse_author (read_lines authors_path) in
    let raw_papers = collect "papers" parse_paper (read_lines papers_path) in
    (* Dense re-id for authors; first occurrence of a duplicate id wins. *)
    let author_map = Hashtbl.create 64 in
    let authors = ref [] in
    List.iter
      (fun (lineno, a) ->
        if Hashtbl.mem author_map a.Corpus.author_id then
          flag "authors" lineno
            (Printf.sprintf "duplicate author id %d dropped" a.Corpus.author_id)
        else begin
          let fresh = Hashtbl.length author_map in
          Hashtbl.replace author_map a.Corpus.author_id fresh;
          authors := { a with Corpus.author_id = fresh } :: !authors
        end)
      raw_authors;
    let authors = Array.of_list (List.rev !authors) in
    (* Papers: remap author references, drop unknowns, drop papers left
       authorless, dedupe paper ids. *)
    let seen_papers = Hashtbl.create 64 in
    let papers = ref [] in
    List.iter
      (fun (lineno, p) ->
        if Hashtbl.mem seen_papers p.Corpus.paper_id then
          flag "papers" lineno
            (Printf.sprintf "duplicate paper id %d dropped" p.Corpus.paper_id)
        else begin
          Hashtbl.replace seen_papers p.Corpus.paper_id ();
          let kept, missing =
            List.partition_map
              (fun a ->
                match Hashtbl.find_opt author_map a with
                | Some a' -> Left a'
                | None -> Right a)
              p.Corpus.author_ids
          in
          List.iter
            (fun a ->
              flag "papers" lineno
                (Printf.sprintf "unknown author id %d dropped" a))
            missing;
          if kept = [] then
            flag "papers" lineno "paper dropped: no resolvable authors"
          else begin
            let fresh = List.length !papers in
            papers :=
              { p with Corpus.paper_id = fresh; author_ids = kept } :: !papers
          end
        end)
      raw_papers;
    let corpus =
      { Corpus.authors; papers = Array.of_list (List.rev !papers) }
    in
    let* () = Corpus.validate corpus in
    Ok (corpus, List.rev !issues)
  with
  | result -> result
  | exception Sys_error msg -> Error msg
