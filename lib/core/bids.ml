module Rng = Wgrap_util.Rng

type t = {
  preferences : float array array;
}

let create preferences =
  let p = Array.length preferences in
  if p = 0 then Error "empty bid matrix"
  else begin
    let r = Array.length preferences.(0) in
    let ok = ref (Ok ()) in
    Array.iter
      (fun row ->
        if Array.length row <> r then ok := Error "ragged bid matrix"
        else if Array.exists (fun b -> b < 0. || b > 1. || Float.is_nan b) row
        then ok := Error "bids must lie in [0, 1]")
      preferences;
    Result.map (fun () -> { preferences }) !ok
  end

let create_exn preferences =
  match create preferences with
  | Ok t -> t
  | Error e -> invalid_arg ("Bids.create: " ^ e)

let random ~rng ?(sparsity = 0.3) inst =
  let n_p = Instance.n_papers inst and n_r = Instance.n_reviewers inst in
  let preferences =
    Array.init n_p (fun p ->
        Array.init n_r (fun r ->
            if
              Instance.forbidden inst ~paper:p ~reviewer:r
              || Rng.uniform rng > sparsity
            then 0.
            else begin
              (* Bid level tracks topical fit, jittered: reviewers like
                 papers they can actually review, but noisily. Bid
                 generation is input synthesis, not solving — the raw
                 pair score is the right fit signal here. *)
              let fit =
                (Instance.pair_score inst ~paper:p ~reviewer:r
                [@wgrap.allow "direct-scoring"])
              in
              let noisy = fit +. (0.3 *. (Rng.uniform rng -. 0.5)) in
              Float.min 1. (Float.max 0. noisy)
            end))
  in
  { preferences }

let bid t ~paper ~reviewer = t.preferences.(paper).(reviewer)

let bid_satisfaction inst t assignment =
  let total = ref 0. and count = ref 0 in
  Array.iteri
    (fun p group ->
      List.iter
        (fun r ->
          total := !total +. bid t ~paper:p ~reviewer:r;
          incr count)
        group)
    assignment.Assignment.groups;
  ignore inst;
  if !count = 0 then 0. else !total /. float_of_int !count

let spec ?(lambda = 0.7) t = Objective.blend ~lambda t.preferences
