(* Correctness of what the servers answered: one response per request,
   simulate outputs equal to the workload's reference outputs, and on a
   sample of image keys, payloads byte-identical to a one-shot in-process
   execution of the same request once scheduling metadata is stripped. *)

module J = Sofia.Obs.Json
module Job = Sofia.Service.Job
module Engine = Sofia.Service.Engine

(* Every key whose number is a multiple of this is compared against
   the one-shot pipeline. *)
let sample_every = 16

type t = { mutable problems : string list; mutable nproblems : int }

let create () = { problems = []; nproblems = 0 }

let fail t fmt =
  Printf.ksprintf
    (fun s ->
      t.nproblems <- t.nproblems + 1;
      if t.nproblems <= 10 then t.problems <- s :: t.problems)
    fmt

let ok t = t.nproblems = 0
let report t = List.rev t.problems

(* Fields that legitimately differ between two answers to one request:
   scheduling metadata and whether a cache tier served it. *)
let volatile =
  [ "id"; "seq"; "completion"; "attempts"; "worker"; "latency_ms"; "ts_unix"; "cached" ]

let payload = function
  | J.Obj fields ->
    J.to_string (J.Obj (List.filter (fun (k, _) -> not (List.mem k volatile)) fields))
  | j -> J.to_string j

let status_of = function
  | J.Obj _ as j -> (match J.member "status" j with Some (J.Str s) -> s | _ -> "?")
  | _ -> "?"

let oneshot_payload (req : Job.request) =
  payload
    (Job.response_to_json
       {
         Job.id = req.Job.id;
         op = Job.op_name req.Job.spec;
         seq = 0;
         completion = 0;
         attempts = 0;
         worker = 0;
         latency_ms = 0.0;
         ts = 0.0;
         status = Engine.execute_oneshot req;
       })

let check_simulate t ~id (c : Traffic.content) j =
  let expected = c.Traffic.key.Traffic.prog.Sofia.Workloads.Workload.expected_outputs in
  let outcome = match J.member "outcome" j with Some (J.Str s) -> s | _ -> "" in
  let outputs =
    match J.member "outputs" j with
    | Some (J.List vs) -> List.map (function J.Int v -> v | _ -> -1) vs
    | _ -> []
  in
  if not (String.length outcome >= 7 && String.sub outcome 0 7 = "halted:") then
    fail t "%s: simulate outcome %S, expected halted" id outcome
  else if outputs <> expected then fail t "%s: simulate outputs differ from the reference" id

(* Check the answers to requests [0, n) of [stream] recorded in [log].
   Payloads of sampled keys are compared against [oneshots], a memo
   shared across calls so that a key is executed in-process once. *)
let answers t ~oneshots ~(stream : Traffic.t) ~(log : Load.log) n =
  for i = 0 to n - 1 do
    let id = Traffic.id_of i in
    if Float.is_nan log.Load.recv.(i) then fail t "%s: no response" id
    else
      match J.parse_opt (Load.line log i) with
      | None -> fail t "%s: unparseable response" id
      | Some j -> (
        let c = Traffic.get stream i in
        match status_of j with
        | "done" -> (
          match c.Traffic.req.Job.spec with
          | Job.Simulate _ -> check_simulate t ~id c j
          | Job.Protect _ | Job.Attest _ | Job.Verify _
            when c.Traffic.key.Traffic.kid mod sample_every = 0 ->
            let op = Job.op_name c.Traffic.req.Job.spec in
            let want =
              match Hashtbl.find_opt oneshots (c.Traffic.key.Traffic.kid, op) with
              | Some p -> p
              | None ->
                let p = oneshot_payload (Traffic.request stream i) in
                Hashtbl.add oneshots (c.Traffic.key.Traffic.kid, op) p;
                p
            in
            if payload j <> want then
              fail t "%s: %s payload differs from the one-shot pipeline" id op
          | _ -> ())
        | s ->
          let err = match J.member "error" j with Some (J.Str e) -> e | _ -> "" in
          fail t "%s: status %s %s" id s err)
  done;
  if log.Load.dups > 0 then fail t "%d duplicate responses" log.Load.dups;
  if log.Load.strays > 0 then fail t "%d responses to no request" log.Load.strays
