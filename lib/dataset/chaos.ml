module Rng = Wgrap_util.Rng

type tsv_fault =
  | Truncate_line
  | Duplicate_id
  | Garbage_field
  | Blank_line
  | Crlf_endings

let tsv_faults =
  [ Truncate_line; Duplicate_id; Garbage_field; Blank_line; Crlf_endings ]

type vector_fault = Nan_entry | Inf_entry | Negative_entry | Zero_row

let vector_faults = [ Nan_entry; Inf_entry; Negative_entry; Zero_row ]

let set_field line idx value =
  String.split_on_char '\t' line
  |> List.mapi (fun i f -> if i = idx then value else f)
  |> String.concat "\t"

let field line idx = List.nth_opt (String.split_on_char '\t' line) idx

let corrupt_lines ~rng fault lines =
  match lines with
  | [] -> lines
  | _ -> (
      let arr = Array.of_list lines in
      let n = Array.length arr in
      let pick () = Rng.int rng n in
      match fault with
      | Truncate_line ->
          let i = pick () in
          let line = arr.(i) in
          let len = String.length line in
          if len > 0 then arr.(i) <- String.sub line 0 (Rng.int rng len);
          Array.to_list arr
      | Duplicate_id ->
          if n < 2 then lines
          else begin
            let i = pick () in
            let j = (i + 1 + Rng.int rng (n - 1)) mod n in
            (match field arr.(i) 0 with
            | Some id -> arr.(j) <- set_field arr.(j) 0 id
            | None -> ());
            Array.to_list arr
          end
      | Garbage_field ->
          let i = pick () in
          let n_fields = List.length (String.split_on_char '\t' arr.(i)) in
          arr.(i) <- set_field arr.(i) (Rng.int rng n_fields) "#garbage#";
          Array.to_list arr
      | Blank_line ->
          let i = pick () in
          List.concat_map
            (fun (j, line) -> if j = i then [ ""; line ] else [ line ])
            (List.mapi (fun j line -> (j, line)) lines)
      | Crlf_endings -> List.map (fun line -> line ^ "\r") lines)

let poison ~rng fault vectors =
  let vectors = Array.map Array.copy vectors in
  let rows = Array.length vectors in
  if rows = 0 then vectors
  else begin
    let i = Rng.int rng rows in
    let row = vectors.(i) in
    let dim = Array.length row in
    if dim > 0 then begin
      match fault with
      | Nan_entry -> row.(Rng.int rng dim) <- Float.nan
      | Inf_entry -> row.(Rng.int rng dim) <- Float.infinity
      | Negative_entry -> row.(Rng.int rng dim) <- -.Rng.uniform rng -. 0.01
      | Zero_row -> Array.fill row 0 dim 0.
    end;
    vectors
  end

type event_fault =
  | Truncated_event
  | Duplicated_event
  | Out_of_order_id
  | Corrupt_payload
  | Mid_event_kill

let event_faults =
  [
    Truncated_event;
    Duplicated_event;
    Out_of_order_id;
    Corrupt_payload;
    Mid_event_kill;
  ]

let corrupt_events ~rng fault lines =
  match lines with
  | [] -> lines
  | _ -> (
      let arr = Array.of_list lines in
      let n = Array.length arr in
      let pick () = Rng.int rng n in
      match fault with
      | Truncated_event ->
          let i = pick () in
          let len = String.length arr.(i) in
          if len > 0 then arr.(i) <- String.sub arr.(i) 0 (Rng.int rng len);
          Array.to_list arr
      | Duplicated_event ->
          (* the same event line shows up again later — a client retry
             that must be rejected by the strictly-increasing-id guard,
             or a replayed journal record skipped by its sequence *)
          let i = pick () in
          let j = i + Rng.int rng (n - i) in
          List.concat
            (List.mapi
               (fun k line -> if k = j then [ line; arr.(i) ] else [ line ])
               (Array.to_list arr))
      | Out_of_order_id ->
          if n < 2 then lines
          else begin
            let i = Rng.int rng (n - 1) in
            let j = i + 1 + Rng.int rng (n - i - 1) in
            let tmp = arr.(i) in
            arr.(i) <- arr.(j);
            arr.(j) <- tmp;
            Array.to_list arr
          end
      | Corrupt_payload ->
          let i = pick () in
          let line = arr.(i) in
          if String.length line > 0 then begin
            let b = Bytes.of_string line in
            let k = Rng.int rng (Bytes.length b) in
            let flipped = Char.code (Bytes.get b k) lxor (1 lsl Rng.int rng 7) in
            (* keep it a one-line fault: never forge a newline *)
            Bytes.set b k
              (Char.chr (if flipped = Char.code '\n' then flipped lxor 1 else flipped));
            arr.(i) <- Bytes.to_string b
          end;
          Array.to_list arr
      | Mid_event_kill ->
          (* kill -9 mid-append: the victim line is torn partway through
             and nothing after it ever reached disk *)
          let i = pick () in
          let keep = Array.to_list (Array.sub arr 0 i) in
          let torn =
            let len = String.length arr.(i) in
            if len = 0 then [] else [ String.sub arr.(i) 0 (Rng.int rng len) ]
          in
          keep @ torn)

let corrupt_event_stream ~rng ~faults lines =
  let streams = Rng.split rng (List.length faults) in
  List.fold_left
    (fun (k, lines) fault -> (k + 1, corrupt_events ~rng:streams.(k) fault lines))
    (0, lines) faults
  |> snd

type file_fault = Torn_write | Truncate_tail | Bit_flip | Disk_full

let file_faults = [ Torn_write; Truncate_tail; Bit_flip; Disk_full ]

let corrupt_bytes ~rng fault data =
  let len = String.length data in
  if len = 0 then data
  else
    match fault with
    | Torn_write ->
        (* A crash mid-write: everything after an arbitrary byte offset
           never made it to disk. *)
        String.sub data 0 (Rng.int rng len)
    | Truncate_tail ->
        (* A short tail loss — the classic lost-last-record shape. *)
        String.sub data 0 (len - 1 - Rng.int rng (min len 64))
    | Bit_flip ->
        let b = Bytes.of_string data in
        let i = Rng.int rng len in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Rng.int rng 8)));
        Bytes.to_string b
    | Disk_full ->
        (* What ENOSPC leaves behind: the final append ran out of space
           partway through, so the last record is cut mid-line and
           nothing after it exists. Unlike [Torn_write], the committed
           prefix stays byte-intact — replay must keep every earlier
           record and refuse only the torn tail. *)
        let last_start =
          match String.rindex_opt (String.sub data 0 (len - 1)) '\n' with
          | Some i -> i + 1
          | None -> 0
        in
        String.sub data 0 (last_start + Rng.int rng (len - last_start))

let corrupt_file ~rng fault path =
  let data = In_channel.with_open_bin path In_channel.input_all in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (corrupt_bytes ~rng fault data))

let dense_coi ~rng ~n_papers ~n_reviewers ~density =
  let pairs = ref [] in
  for p = 0 to n_papers - 1 do
    for r = 0 to n_reviewers - 1 do
      if Rng.uniform rng < density then pairs := (p, r) :: !pairs
    done
  done;
  !pairs

let write_lines path lines =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> List.iter (fun line -> output_string oc (line ^ "\n")) lines)
