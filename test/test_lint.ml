(* End-to-end suite for the wgrap_lint analyzer, driving the built
   executable over a synthetic temp tree: the interprocedural rules
   catch seeded violations (and stay quiet on the allowed twins), and
   the SARIF / JSON / explain surfaces behave. A config case checks
   that every path Lint_config names still exists, so a moved module
   cannot silently drop out of its rules. *)

let lint_exe = "../tools/lint/wgrap_lint.exe"
let lint_config = "../tools/lint/lint_config.ml"

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "wgrap_lint_%d_%d" (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Run the linter; returns (exit code, combined stdout+stderr). *)
let run_lint args =
  let cmd =
    String.concat " " (List.map Filename.quote (lint_exe :: args)) ^ " 2>&1"
  in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let code =
    match status with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED n | Unix.WSTOPPED n -> 128 + n
  in
  (code, Buffer.contents buf)

let contains ~sub s =
  let ls = String.length s and lb = String.length sub in
  let rec scan i = i + lb <= ls && (String.sub s i lb = sub || scan (i + 1)) in
  scan 0

let count_lines_with ~sub s =
  List.length
    (List.filter (contains ~sub) (String.split_on_char '\n' s))

(* --- the seeded tree ---------------------------------------------- *)

(* The acceptance case: a shared-ref write two calls below a Pool.map
   closure. *)
let race_bad =
  "let tally = ref 0\n\
   let bump () = tally := !tally + 1\n\
   let record i = if i > 0 then bump ()\n\
   let scan pool n = Pool.map pool ~n (fun i -> record i)\n"

let race_ok =
  "let tally = ref 0\n\
   let bump () = tally := !tally + 1\n\
   let record i = if i > 0 then bump ()\n\
   let scan pool n =\n\
  \  (Pool.map pool ~n (fun i -> record i)) [@wgrap.allow \"domain-race\"]\n"

let nondet_bad =
  "let visit tbl f = Hashtbl.iter f tbl\n\
   let total tbl = let s = ref 0 in visit tbl (fun _ v -> s := !s + v); !s\n\
   let solve ?deadline tbl = ignore (Timer.check deadline); total tbl\n"

let nondet_ok =
  "let visit tbl f = (Hashtbl.iter f tbl) [@wgrap.allow \"nondet-reach\"]\n\
   let total tbl = let s = ref 0 in visit tbl (fun _ v -> s := !s + v); !s\n\
   let solve ?deadline tbl = ignore (Timer.check deadline); total tbl\n"

let nondet_mli =
  "val solve : ?deadline:Wgrap_util.Timer.deadline -> (string, int) \
   Hashtbl.t -> int\n"

let trans_bad =
  "let audit ?deadline () = ignore (Timer.check deadline)\n\
   let churn x = x * 2\n\
   let grind x = churn (churn x)\n\
   let solve ?deadline:_ x = grind x\n"

let trans_ok =
  "let step ?deadline x = ignore (Timer.check deadline); x + 1\n\
   let grind ?deadline x = step ?deadline (x * 2)\n\
   let solve ?deadline x = grind ?deadline x\n"

let trans_mli = "val solve : ?deadline:Wgrap_util.Timer.deadline -> int -> int\n"

let seed_tree dir =
  let p name = Filename.concat dir name in
  write_file (p "race_bad.ml") race_bad;
  write_file (p "race_ok.ml") race_ok;
  write_file (p "nondet_bad.ml") nondet_bad;
  write_file (p "nondet_bad.mli") nondet_mli;
  write_file (p "nondet_ok.ml") nondet_ok;
  write_file (p "nondet_ok.mli") nondet_mli;
  write_file (p "trans_bad.ml") trans_bad;
  write_file (p "trans_bad.mli") trans_mli;
  write_file (p "trans_ok.ml") trans_ok;
  write_file (p "trans_ok.mli") trans_mli

let solver_flags dir =
  List.concat_map
    (fun m -> [ "--solver-module"; Filename.concat dir m ])
    [ "nondet_bad.ml"; "nondet_ok.ml"; "trans_bad.ml"; "trans_ok.ml" ]

let lint_tree ?(extra = []) dir =
  run_lint (solver_flags dir @ extra @ [ dir ])

(* --- tests -------------------------------------------------------- *)

let test_interproc_findings () =
  with_dir @@ fun dir ->
  seed_tree dir;
  let code, out = lint_tree dir in
  Alcotest.(check int) "findings exit 1" 1 code;
  Alcotest.(check int) "one domain-race" 1
    (count_lines_with ~sub:"[domain-race]" out);
  Alcotest.(check bool) "race anchored at the bad spawn" true
    (contains ~sub:"race_bad.ml:4" out);
  Alcotest.(check bool) "race witness names the chain" true
    (contains ~sub:"record -> bump" out);
  Alcotest.(check int) "one nondet-reach" 1
    (count_lines_with ~sub:"[nondet-reach]" out);
  Alcotest.(check bool) "nondet anchored at the bad entry" true
    (contains ~sub:"nondet_bad.ml:3" out);
  Alcotest.(check int) "one transitive deadline miss" 1
    (count_lines_with ~sub:"[deadline]" out);
  Alcotest.(check bool) "deadline anchored at the bad mli" true
    (contains ~sub:"trans_bad.mli:1" out);
  (* The allowed / transitively-satisfied twins stay quiet. *)
  List.iter
    (fun twin ->
      Alcotest.(check int)
        (twin ^ " clean") 0
        (count_lines_with ~sub:twin out))
    [ "race_ok.ml:"; "nondet_ok.ml:"; "trans_ok.ml:"; "trans_ok.mli:" ]

let test_sarif_json () =
  with_dir @@ fun dir ->
  seed_tree dir;
  let sarif = Filename.concat dir "out.sarif" in
  let code, _ = lint_tree ~extra:[ "--sarif"; sarif ] dir in
  Alcotest.(check int) "sarif run still exits 1" 1 code;
  let log = read_file sarif in
  Alcotest.(check bool) "sarif declares 2.1.0" true
    (contains ~sub:"\"version\":\"2.1.0\"" log);
  Alcotest.(check bool) "sarif names the tool" true
    (contains ~sub:"\"name\":\"wgrap_lint\"" log);
  Alcotest.(check bool) "sarif carries the race result" true
    (contains ~sub:"\"ruleId\":\"domain-race\"" log);
  let _, json = lint_tree ~extra:[ "--json" ] dir in
  Alcotest.(check bool) "json is an array of findings" true
    (String.length json > 0 && json.[0] = '['
    && contains ~sub:"\"rule\":\"nondet-reach\"" json)

let test_explain () =
  let code, out = run_lint [ "--explain"; "domain-race" ] in
  Alcotest.(check int) "explain exits 0" 0 code;
  Alcotest.(check bool) "explain covers the rule" true
    (contains ~sub:"Pool" out && contains ~sub:"Bad:" out
   && contains ~sub:"Good:" out);
  let code, _ = run_lint [ "--explain"; "no-such-rule" ] in
  Alcotest.(check int) "unknown rule exits 2" 2 code

(* Every quoted path in Lint_config (its only string literals holding a
   '/') must name a file or directory of the tree: a stale entry would
   leave the rules keyed on it covering nothing. *)
let test_config_paths () =
  let paths =
    String.split_on_char '"' (read_file lint_config)
    |> List.filteri (fun i _ -> i mod 2 = 1)
    |> List.filter (fun s -> String.contains s '/')
  in
  Alcotest.(check bool) "config lists paths" true (List.length paths >= 10);
  Alcotest.(check (list string)) "no stale Lint_config path" []
    (List.filter
       (fun p -> not (Sys.file_exists (Filename.concat ".." p)))
       paths)

let () =
  if not (Sys.file_exists lint_exe) then
    failwith ("test_lint: linter not built at " ^ lint_exe);
  Alcotest.run "lint"
    [
      ( "interproc",
        [ Alcotest.test_case "seeded violations" `Quick test_interproc_findings ]
      );
      ("output", [ Alcotest.test_case "sarif json" `Quick test_sarif_json ]);
      ( "config",
        [ Alcotest.test_case "every path exists" `Quick test_config_paths ] );
      ("explain", [ Alcotest.test_case "rule catalog" `Quick test_explain ]);
    ]
