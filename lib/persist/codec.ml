module Checkpoint = Wgrap.Checkpoint
module Assignment = Wgrap.Assignment

let magic = "wgrap-snapshot"
(* Version 3 dropped the [chains] fingerprint field. A version-2
   snapshot written at several jobs could hold a multi-chain SRA winner
   that no run reaches any more, so older versions never load. *)
let version = 3

type fingerprint = (string * string) list

let ( let* ) = Result.bind

(* {1 Snapshot encoding}

   A snapshot is a line-oriented text file: a versioned header, the
   run fingerprint ([run <field> <value>] lines), the solver state
   fields, both assignments in the canonical
   {!Assignment.to_lines} form, and a trailing [crc <hex>] line whose
   CRC-32 covers every preceding byte. Floats are written with [%h]
   (hex float literals) and RNG words as raw hex, so every value
   round-trips bit-exactly — a resumed run must replay the
   uninterrupted run's arithmetic, not an approximation of it. *)

let encode_state ~fingerprint (st : Checkpoint.state) =
  let b = Buffer.create 4096 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string b s;
        Buffer.add_char b '\n')
      fmt
  in
  line "%s %d" magic version;
  List.iter (fun (field, value) -> line "run %s %s" field value) fingerprint;
  line "link %s" st.link;
  (match st.phase with
  | Checkpoint.Sdga_stage k -> line "phase sdga %d" k
  | Checkpoint.Sra_round k -> line "phase sra %d" k);
  line "stall %d" st.stall;
  line "score %h" st.score;
  (match st.rng with
  | Some w -> line "rng %Lx %Lx %Lx %Lx" w.(0) w.(1) w.(2) w.(3)
  | None -> ());
  let best_lines = Assignment.to_lines st.best in
  line "papers %d" (List.length best_lines);
  List.iter (fun l -> line "b %s" l) best_lines;
  if st.best.Assignment.groups = st.current.Assignment.groups then
    line "current same"
  else begin
    line "current differ";
    List.iter (fun l -> line "c %s" l) (Assignment.to_lines st.current)
  end;
  let payload = Buffer.contents b in
  payload ^ "crc " ^ Crc32.hex payload ^ "\n"

(* {1 Snapshot decoding} *)

let strip_prefix p s =
  let lp = String.length p in
  if String.length s >= lp && String.sub s 0 lp = p then
    Some (String.sub s lp (String.length s - lp))
  else None

let parse_int what s =
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "bad %s %S" what s)

let parse_float what s =
  match float_of_string_opt s with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "bad %s %S" what s)

let parse_word64 s =
  match Int64.of_string_opt ("0x" ^ s) with
  | Some w -> Ok w
  | None -> Error (Printf.sprintf "bad rng word %S" s)

let expect_line what lines =
  match lines with
  | [] -> Error (Printf.sprintf "truncated snapshot: missing %s" what)
  | l :: rest -> Ok (l, rest)

let expect_field key lines =
  let* l, rest = expect_line key lines in
  match strip_prefix (key ^ " ") l with
  | Some v -> Ok (v, rest)
  | None -> Error (Printf.sprintf "expected %S line, found %S" key l)

let take_assignment ~tag ~n_papers lines =
  let rec strip n acc lines =
    if n = 0 then Ok (List.rev acc, lines)
    else
      let* l, rest = expect_line (tag ^ " line") lines in
      match strip_prefix (tag ^ " ") l with
      | Some v -> strip (n - 1) (v :: acc) rest
      | None -> Error (Printf.sprintf "expected %S line, found %S" tag l)
  in
  let* raw, rest = strip n_papers [] lines in
  let* a = Assignment.of_lines ~n_papers raw in
  Ok (a, rest)

let decode_payload lines =
  let* header, lines = expect_line "header" lines in
  let* () =
    match String.split_on_char ' ' header with
    | [ m; v ] when m = magic ->
        let* v = parse_int "version" v in
        if v = version then Ok ()
        else Error (Printf.sprintf "unsupported snapshot version %d" v)
    | _ -> Error (Printf.sprintf "bad header %S" header)
  in
  let rec take_run acc = function
    | l :: rest when String.starts_with ~prefix:"run " l -> (
        match String.split_on_char ' ' l with
        | [ _; field; value ] -> take_run ((field, value) :: acc) rest
        | _ -> Error (Printf.sprintf "bad run line %S" l))
    | lines -> Ok (List.rev acc, lines)
  in
  let* fingerprint, lines = take_run [] lines in
  let* link, lines = expect_field "link" lines in
  let* phase_str, lines = expect_field "phase" lines in
  let* phase =
    match String.split_on_char ' ' phase_str with
    | [ "sdga"; k ] ->
        let* k = parse_int "stage" k in
        Ok (Checkpoint.Sdga_stage k)
    | [ "sra"; k ] ->
        let* k = parse_int "round" k in
        Ok (Checkpoint.Sra_round k)
    | _ -> Error (Printf.sprintf "bad phase %S" phase_str)
  in
  let* stall, lines = expect_field "stall" lines in
  let* stall = parse_int "stall" stall in
  let* score, lines = expect_field "score" lines in
  let* score = parse_float "score" score in
  let* rng, lines =
    match lines with
    | l :: rest when strip_prefix "rng " l <> None ->
        let v = Option.get (strip_prefix "rng " l) in
        let words = String.split_on_char ' ' v in
        if List.length words <> 4 then Error "rng line needs 4 words"
        else
          let* ws =
            List.fold_left
              (fun acc w ->
                let* acc = acc in
                let* w = parse_word64 w in
                Ok (w :: acc))
              (Ok []) words
          in
          let w = Array.of_list (List.rev ws) in
          if Array.for_all (Int64.equal 0L) w then
            Error "rng state is all-zero (not a reachable xoshiro state)"
          else Ok (Some w, rest)
    | _ -> Ok (None, lines)
  in
  let* n_papers, lines = expect_field "papers" lines in
  let* n_papers = parse_int "paper count" n_papers in
  let* () = if n_papers > 0 then Ok () else Error "paper count must be positive" in
  let* best, lines = take_assignment ~tag:"b" ~n_papers lines in
  let* current_mode, lines = expect_field "current" lines in
  let* current, lines =
    match current_mode with
    | "same" -> Ok (best, lines)
    | "differ" -> take_assignment ~tag:"c" ~n_papers lines
    | s -> Error (Printf.sprintf "bad current marker %S" s)
  in
  let* () =
    if lines = [] then Ok ()
    else Error (Printf.sprintf "trailing garbage after state (%d lines)" (List.length lines))
  in
  Ok (fingerprint, { Checkpoint.link; phase; stall; score; rng; best; current })

let decode_state s =
  let len = String.length s in
  if len = 0 then Error "empty snapshot"
  else if s.[len - 1] <> '\n' then Error "torn snapshot: missing final newline"
  else
    let lines =
      match List.rev (String.split_on_char '\n' s) with
      | "" :: rev -> List.rev rev
      | _ -> assert false
    in
    match List.rev lines with
    | [] -> Error "empty snapshot"
    | crc_line :: rev_payload -> (
        let payload_lines = List.rev rev_payload in
        let payload =
          match payload_lines with
          | [] -> ""
          | _ -> String.concat "\n" payload_lines ^ "\n"
        in
        match strip_prefix "crc " crc_line with
        | None -> Error "torn snapshot: missing crc trailer"
        | Some given ->
            if String.lowercase_ascii given <> Crc32.hex payload then
              Error "snapshot checksum mismatch"
            else decode_payload payload_lines)

(* {1 Journal records}

   One record per line: [crc32-hex TAB payload]. Each record is
   self-checksummed so a torn tail (or any corrupted record) is
   detected independently and replay truncates there. *)

let encode_event = function
  | Checkpoint.Stage_done { stage; score } ->
      Printf.sprintf "stage %d %h" stage score
  | Checkpoint.Round_improved { round; score } ->
      Printf.sprintf "round %d %h" round score
  | Checkpoint.Link_entered { link } -> Printf.sprintf "link %s" link

let journal_line e =
  let p = encode_event e in
  Crc32.hex p ^ "\t" ^ p

let decode_event_payload payload =
  match String.split_on_char ' ' payload with
  | [ "stage"; k; s ] ->
      let* stage = parse_int "stage" k in
      let* score = parse_float "score" s in
      Ok (Checkpoint.Stage_done { stage; score })
  | [ "round"; k; s ] ->
      let* round = parse_int "round" k in
      let* score = parse_float "score" s in
      Ok (Checkpoint.Round_improved { round; score })
  | "link" :: rest when rest <> [] ->
      Ok (Checkpoint.Link_entered { link = String.concat " " rest })
  | _ -> Error (Printf.sprintf "journal record: unknown payload %S" payload)

let decode_journal_line line =
  match String.index_opt line '\t' with
  | None -> Error "journal record: missing checksum field"
  | Some i ->
      let given = String.sub line 0 i in
      let payload = String.sub line (i + 1) (String.length line - i - 1) in
      if String.lowercase_ascii given <> Crc32.hex payload then
        Error "journal record: checksum mismatch"
      else decode_event_payload payload
