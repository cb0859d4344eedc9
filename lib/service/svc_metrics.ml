module M = Sofia_obs.Metrics
module J = Sofia_obs.Json

type t = {
  mutable submitted : int;
  mutable completed : int;
  mutable rejected : int;
  mutable timed_out : int;
  mutable failed : int;
  mutable service_errors : int;
  protect_latency_us : M.histogram;
  verify_latency_us : M.histogram;
  simulate_latency_us : M.histogram;
  attest_latency_us : M.histogram;
  run_image_latency_us : M.histogram;
}

let create () =
  {
    submitted = 0;
    completed = 0;
    rejected = 0;
    timed_out = 0;
    failed = 0;
    service_errors = 0;
    protect_latency_us = M.hist_create ();
    verify_latency_us = M.hist_create ();
    simulate_latency_us = M.hist_create ();
    attest_latency_us = M.hist_create ();
    run_image_latency_us = M.hist_create ();
  }

let hist_of_op t = function
  | "protect" -> Some t.protect_latency_us
  | "verify" -> Some t.verify_latency_us
  | "simulate" -> Some t.simulate_latency_us
  | "attest" -> Some t.attest_latency_us
  | "run_image" -> Some t.run_image_latency_us
  | _ -> None

let observe_latency t ~op ~us =
  match hist_of_op t op with Some h -> M.hist_observe h us | None -> ()

let terminal_sum t = t.completed + t.rejected + t.timed_out + t.failed

let counters t =
  [
    ("submitted", t.submitted);
    ("completed", t.completed);
    ("rejected", t.rejected);
    ("timed_out", t.timed_out);
    ("failed", t.failed);
    ("service_errors", t.service_errors);
  ]

let to_json t =
  J.Obj
    (List.map (fun (k, v) -> (k, J.Int v)) (counters t)
    @ [
        ("protect_latency_us", M.hist_to_json t.protect_latency_us);
        ("verify_latency_us", M.hist_to_json t.verify_latency_us);
        ("simulate_latency_us", M.hist_to_json t.simulate_latency_us);
        ("attest_latency_us", M.hist_to_json t.attest_latency_us);
        ("run_image_latency_us", M.hist_to_json t.run_image_latency_us);
      ])

let pp fmt t =
  List.iter (fun (k, v) -> if v <> 0 then Format.fprintf fmt "%-16s %10d@." k v) (counters t);
  List.iter
    (fun (name, h) ->
      if h.M.h_count > 0 then
        Format.fprintf fmt "%-16s count %d mean %.0fus min %d max %d@." name h.M.h_count
          (M.hist_mean h) h.M.h_min h.M.h_max)
    [ ("protect", t.protect_latency_us); ("verify", t.verify_latency_us);
      ("simulate", t.simulate_latency_us); ("attest", t.attest_latency_us);
      ("run_image", t.run_image_latency_us) ]
