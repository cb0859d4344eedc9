module Job = Sofia_service.Job

(* The routing key is the image content tuple — (source, key seed,
   ω/nonce, backend) — NOT the op: a protect, verify, attest and
   simulate of the same program land on the same shard, so exactly one
   child's content-addressed store (memory and disk tier alike) ever
   builds that image. Run_image routes by path; Ping is shardless. The
   backend component is appended only when it is not SOFIA, so every
   pre-PR-8 key (and therefore the shard map of an all-SOFIA fleet) is
   byte-identical to before backends existed. *)
let route_key (req : Job.request) =
  let body =
    match req.Job.spec with
    | Job.Protect { source } | Job.Verify { source } | Job.Attest { source }
    | Job.Simulate { source; _ } ->
      source
    | Job.Run_image { path } -> path
    | Job.Ping -> ""
  in
  let backend =
    match req.Job.backend with
    | Sofia_transform.Backend_id.Sofia -> ""
    | b -> "|" ^ Sofia_transform.Backend_id.name b
  in
  Printf.sprintf "%s|%Lx|%d%s" body req.Job.key_seed req.Job.nonce backend

(* FNV-1a 64 over the routing key. The same fingerprint family the
   stores use ("filenames route, envelopes decide" — DESIGN §12): cheap,
   deterministic, stateless, so the shard map needs no coordination and
   survives router restarts unchanged. *)
let route ~shards (req : Job.request) =
  if shards <= 1 then 0
  else
    Int64.to_int
      (Int64.rem
         (Int64.logand (Sofia_util.Hash.fnv1a64 (route_key req)) 0x7FFFFFFFFFFFFFFFL)
         (Int64.of_int shards))

(* Replay-cache key: everything that determines the payload. The op (and
   the simulate target core) joins the content triple; scheduling fields
   (id, deadline) deliberately do not. *)
let content_key (req : Job.request) =
  let tag =
    match req.Job.spec with
    | Job.Simulate { sofia; _ } -> if sofia then "#sofia" else "#vanilla"
    | _ -> ""
  in
  Job.op_name req.Job.spec ^ tag ^ "|" ^ route_key req

(* Protect/verify/attest/simulate are deterministic functions of the
   content key (the whole system is: same source, same keys, same ω ⇒
   bit-identical image, verdicts and run). Run_image reads a file that
   can change under us, and Ping is a liveness probe — never replayed. *)
let replayable (req : Job.request) =
  match req.Job.spec with
  | Job.Protect _ | Job.Verify _ | Job.Attest _ | Job.Simulate _ -> true
  | Job.Run_image _ | Job.Ping -> false
