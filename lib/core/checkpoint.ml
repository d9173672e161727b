type phase = Sdga_stage of int | Sra_round of int

type state = {
  link : string;
  phase : phase;
  stall : int;
  score : float;
  rng : int64 array option;
  best : Assignment.t;
  current : Assignment.t;
}

type event =
  | Stage_done of { stage : int; score : float }
  | Round_improved of { round : int; score : float }
  | Link_entered of { link : string }

type sink = {
  on_event : event -> unit;
  offer : (unit -> state) -> unit;
}

let with_link link sink =
  { sink with offer = (fun mk -> sink.offer (fun () -> { (mk ()) with link })) }

let memory () =
  let events = ref [] and states = ref [] in
  let sink =
    {
      on_event = (fun e -> events := e :: !events);
      offer = (fun mk -> states := mk () :: !states);
    }
  in
  (sink, (fun () -> List.rev !events), fun () -> List.rev !states)

let pp_phase ppf = function
  | Sdga_stage k -> Format.fprintf ppf "sdga stage %d" k
  | Sra_round k -> Format.fprintf ppf "sra round %d" k

let event_score = function
  | Stage_done { score; _ } | Round_improved { score; _ } -> Some score
  | Link_entered _ -> None
