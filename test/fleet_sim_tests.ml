(* Fleet supervision on a virtual clock. The router's core
   (Sofia.Fleet.Supervisor) runs against simulated children: each one
   answers a request line with a payload that is a pure function of the
   request's content key, a liar child flips that payload, and a poison
   job kills whichever child receives it. Random schedules mix client
   lines (duplicates, several clients, garbage), child answers in any
   order, kills, hangs, failed restarts, virtual-time advances and a
   replay tier holding honest, tampered or no entries.

   After every event: no id is answered twice or to another client, no
   more jobs settle than were admitted, no client receives a payload
   other than the honest one (a schedule with a liar audits every
   distinct key, and its kills spare one designated honest shard), no
   shard dies more than [death_limit] times within [death_window_s], a
   breaker quarantine comes exactly at a shard's [death_limit]th death
   within that window, and a shard in service restarts only after a
   death or an orderly exit at drain. At quiescence every id has been
   answered exactly once and the counters conserve. The test prints how
   many schedules reached each supervision transition and fails if one
   was never reached. Five pinned schedules replay faults: two audit
   faults, one the property found and one it rarely reaches, built by
   hand, a shard that answers between its crashes, a shard on
   probation when a signal starts the drain, and a poison job that
   shares its window with an honest one.

   A failure prints the qcheck seed; QCHECK_SEED=<seed> replays it. *)

module S = Sofia.Fleet.Supervisor
module Shard = Sofia.Fleet.Shard
module Job = Sofia.Service.Job
module J = Sofia.Obs.Json
module Obs = Sofia.Obs.Obs
module Event = Sofia.Obs.Event
module Trace = Sofia.Obs.Trace
module Lines = Sofia.Util.Lines

type ev =
  | Send of int * int  (* client, job: a content index, or [jobs] for a ping *)
  | Garbage of int  (* client sends a line that does not parse *)
  | Respond of int * int  (* shard answers the i-th line it holds (mod count) *)
  | Kill of int  (* shard's process crashes; the driver sees the EOF later *)
  | Eof of int  (* the driver sees a crashed shard's EOF *)
  | Flap of int  (* shard answers what it holds, crashes, and the EOF is seen *)
  | Hang of int  (* shard's process goes silent until it is killed *)
  | Fail_restart of int  (* shard's next restart fails *)
  | Advance of int  (* virtual milliseconds pass *)
  | Signal  (* SIGINT/SIGTERM: the router starts its drain (pinned schedules only) *)

type schedule = {
  shards : int;
  clients : int;
  window : int;
  audit_every : int;
  liar : int option;  (* a shard that flips every payload it serves *)
  poison : bool;  (* job 0 kills the child that receives it *)
  disk : int list;  (* per job: 0 no replay entry, 1 honest, 2 tampered *)
  events : ev list;
}

let jobs = 6
let marker = "FLEET-SIM-POISON"

let request ~poison ~id j =
  if j >= jobs then Job.make ~id Job.Ping
  else
    let source = ".equ OUT, 0xFFFF0000\nmain:\n  la a6, OUT\n  st a0, 0(a6)\n  halt\n" in
    let source = if poison && j = 0 then source ^ "; " ^ marker ^ "\n" else source in
    Job.make ~id ~nonce:(j + 1) (Job.Protect { source })

let digest ?(lie = false) key =
  Printf.sprintf "%016Lx" (Sofia.Util.Hash.fnv1a64 (if lie then "lie:" ^ key else key))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ---- coverage: schedules that reached each transition -------------- *)

let transitions =
  [ "watchdog hang kill"; "crash-restart after backoff"; "breaker quarantine";
    "probation rejoin"; "probation death"; "integrity quarantine by a 2-1 vote";
    "fail-closed conflict"; "re-audit on a third shard"; "abandoned audit";
    "redispatch-limit failure";
    "coalesced release"; "replay-tier miss on a tampered entry" ]

let coverage = Hashtbl.create 16

(* ---- the simulated fleet ------------------------------------------- *)

type proc = {
  mutable alive : bool;
  mutable eof_due : bool;  (* crashed; the driver has not seen the EOF *)
  mutable hung : bool;
  mutable fail_next : bool;
  mutable inbox : string list;  (* request lines held, oldest first *)
  mutable exited : bool;  (* died or exited in order since its last restart *)
}

type sim = {
  sch : schedule;
  procs : proc array;
  mutable now : float;
  mutable pid : int;
  mutable core : int S.t option;
  next : int array;  (* per-client id counter *)
  owner : (string, int) Hashtbl.t;  (* id -> client that sent it *)
  honest : (string, string) Hashtbl.t;  (* protect id -> honest digest *)
  answered : (string, unit) Hashtbl.t;
  disk : (string, S.entry option) Hashtbl.t;  (* content key -> entry; None = tampered *)
  deaths : float list array;  (* per shard: its deaths within [death_window_s], newest first *)
  reached : (string, unit) Hashtbl.t;
}

let fail fmt = QCheck2.Test.fail_reportf fmt
let reach sim name = Hashtbl.replace sim.reached name ()
let core sim = Option.get sim.core

let crash p =
  if p.alive then begin
    p.alive <- false;
    p.eof_due <- true;
    p.hung <- false;
    p.inbox <- []
  end

let deliver sim c line =
  let id =
    match J.parse_opt line with
    | Some j -> (
      match J.member "id" j with
      | Some (J.Str id) ->
        (match (Hashtbl.find_opt sim.honest id, J.member "status" j, J.member "digest" j) with
         | Some h, Some (J.Str "done"), Some (J.Str d) when d <> h ->
           fail "%s: client %d got digest %s, the honest one is %s" id c d h
         | Some _, Some (J.Str "done"), None -> fail "%s: done without a digest: %s" id line
         | _ -> ());
        id
      | _ -> fail "response without an id: %s" line)
    | None -> fail "non-JSON response: %s" line
  in
  if Hashtbl.mem sim.answered id then fail "%s answered twice" id;
  if Hashtbl.find_opt sim.owner id <> Some c then fail "%s answered to client %d" id c;
  Hashtbl.replace sim.answered id ();
  if contains line "killed its shard child" then reach sim "redispatch-limit failure";
  if contains line "integrity conflict" then reach sim "fail-closed conflict"

let restart sim k =
  let p = sim.procs.(k) in
  if p.fail_next then begin
    p.fail_next <- false;
    Error "simulated spawn failure"
  end
  else begin
    p.alive <- true;
    p.eof_due <- false;
    p.hung <- false;
    p.inbox <- [];
    (* a restart of a quarantined shard is its probation; any other
       follows a death or an orderly exit, so [death_limit] bounds the
       restarts as well *)
    if not (S.stats (core sim)).S.shards.(k).S.ss_quarantined then begin
      reach sim "crash-restart after backoff";
      if not p.exited then
        fail "shard %d restarted with no death or orderly exit since its last restart" k
    end;
    p.exited <- false;
    sim.pid <- sim.pid + 1;
    Ok sim.pid
  end

let effects sim =
  {
    S.send =
      (fun k line ->
        let p = sim.procs.(k) in
        if p.alive then p.inbox <- p.inbox @ [ line ];
        p.alive);
    kill =
      (fun k ->
        let p = sim.procs.(k) in
        p.alive <- false;
        p.eof_due <- false;
        p.hung <- false;
        p.inbox <- []);
    restart = restart sim;
    deliver = deliver sim;
    load =
      (fun _ key ->
        match Hashtbl.find_opt sim.disk key with
        | Some (Some e) -> Some e
        | Some None ->
          reach sim "replay-tier miss on a tampered entry";
          None
        | None -> None);
    store = (fun _ key e -> Hashtbl.replace sim.disk key (Some e));
    wall = (fun () -> 0.0);
  }

(* Counted from the deaths themselves, not from restarts: a shard that
   exits in order at drain restarts without a death. A probation death
   is no [Child_down]. *)
let on_event sim = function
  | S.Child_down (k, reason) ->
    sim.procs.(k).exited <- true;
    if not (String.starts_with ~prefix:"quarantined: " reason) then begin
      sim.deaths.(k) <-
        sim.now :: List.filter (fun d -> sim.now -. d <= S.death_window_s) sim.deaths.(k);
      if List.length sim.deaths.(k) > S.death_limit then
        fail "shard %d died %d times within %.0f s" k (List.length sim.deaths.(k))
          S.death_window_s
    end;
    if contains reason "breaker: repeated child deaths" then begin
      reach sim "breaker quarantine";
      if List.length sim.deaths.(k) <> S.death_limit then
        fail "shard %d quarantined by the breaker at %d deaths within %.0f s" k
          (List.length sim.deaths.(k)) S.death_window_s
    end;
    if contains reason "outvoted 2-1" then reach sim "integrity quarantine by a 2-1 vote"
  | S.Child_rejoin _ -> reach sim "probation rejoin"
  | S.Client_response _ | S.Child_up _ -> ()

(* What a child sends back for one request line. *)
let answer sim k (req : Job.request) =
  let payload =
    match req.Job.spec with
    | Job.Ping -> []
    | _ -> [ ("digest", J.Str (digest ~lie:(sim.sch.liar = Some k) (Shard.content_key req))) ]
  in
  J.to_string
    (J.Obj
       ([ ("id", J.Str req.Job.id); ("op", J.Str (Job.op_name req.Job.spec));
          ("status", J.Str "done"); ("seq", J.Int 0); ("completion", J.Int 0);
          ("attempts", J.Int 1); ("worker", J.Int 0); ("latency_ms", J.Float 0.5);
          ("ts_unix", J.Float 1.0) ]
       @ payload))

let respond sim k i =
  let p = sim.procs.(k) in
  if p.alive && (not p.hung) && p.inbox <> [] then begin
    let i = i mod List.length p.inbox in
    let line = List.nth p.inbox i in
    p.inbox <- List.filteri (fun j _ -> j <> i) p.inbox;
    if contains line marker then crash p
    else
      match Job.request_of_line line with
      | Ok req -> S.child_line (core sim) ~now:sim.now k (Lines.Line (answer sim k req))
      | Error e -> fail "the router sent a child an unparseable line (%s): %s" e line
  end

let eof sim ~draining k =
  let p = sim.procs.(k) in
  if p.eof_due then begin
    p.eof_due <- false;
    (* at drain, a shard that owes nothing exits in order *)
    if draining then p.exited <- true;
    S.child_closed (core sim) ~now:sim.now ~draining k
  end

let send sim c j =
  let n = sim.next.(c) in
  sim.next.(c) <- n + 1;
  let id = Printf.sprintf "c%d-%d" c n in
  let req = request ~poison:sim.sch.poison ~id j in
  Hashtbl.replace sim.owner id c;
  (match req.Job.spec with
   | Job.Protect _ -> Hashtbl.replace sim.honest id (digest (Shard.content_key req))
   | _ -> ());
  S.client_line (core sim) ~now:sim.now c (Lines.Line (J.to_string (Job.request_to_json req)))

let garbage sim c =
  let n = sim.next.(c) in
  sim.next.(c) <- n + 1;
  let id = Printf.sprintf "c%d-%d" c n in
  Hashtbl.replace sim.owner id c;
  S.client_line (core sim) ~now:sim.now c
    (Lines.Line (Printf.sprintf {|{"id":"%s","op":"detonate"}|} id))

let step sim = function
  | Send (c, j) -> send sim c j
  | Garbage c -> garbage sim c
  | Respond (k, i) -> respond sim k i
  | Kill k -> crash sim.procs.(k)
  | Eof k -> eof sim ~draining:false k
  | Flap k ->
    let p = sim.procs.(k) in
    while p.alive && (not p.hung) && p.inbox <> [] do respond sim k 0 done;
    crash p;
    eof sim ~draining:false k
  | Hang k -> if sim.procs.(k).alive then sim.procs.(k).hung <- true
  | Fail_restart k -> sim.procs.(k).fail_next <- true
  | Advance ms -> sim.now <- sim.now +. (float_of_int ms /. 1000.0)
  | Signal -> (S.stats (core sim)).S.interrupted <- true

let quiescent sim = Hashtbl.length sim.answered = Hashtbl.length sim.owner

(* after every event, and after every answer while draining *)
let check_settled sim =
  let s = S.stats (core sim) in
  if S.unsettled s < 0 then
    fail "%d jobs settled, %d admitted" (s.S.done_ + s.S.rejected + s.S.timed_out + s.S.failed)
      s.S.submitted

(* No more client input: the driver drains. Each round delivers the
   pending EOFs, lets every live child answer everything it holds, and
   moves the clock half a second so backoffs, the watchdog and
   probation run out. *)
let drain sim =
  let rec go round =
    if not (quiescent sim) then begin
      if round >= 400 then
        fail "no quiescence after %d drain rounds: %d of %d lines answered" round
          (Hashtbl.length sim.answered) (Hashtbl.length sim.owner);
      Array.iteri (fun k _ -> eof sim ~draining:true k) sim.procs;
      let busy p = p.alive && (not p.hung) && p.inbox <> [] in
      while Array.exists busy sim.procs do
        Array.iteri
          (fun k p ->
            while busy p do
              respond sim k 0;
              check_settled sim
            done)
          sim.procs
      done;
      sim.now <- sim.now +. 0.5;
      S.tick (core sim) ~now:sim.now;
      check_settled sim;
      go (round + 1)
    end
  in
  go 0

let simulate sch =
  let sim =
    {
      sch;
      procs =
        Array.init sch.shards (fun _ ->
            { alive = true; eof_due = false; hung = false; fail_next = false; inbox = [];
              exited = false });
      now = 1000.0;
      pid = 0;
      core = None;
      next = Array.make sch.clients 0;
      owner = Hashtbl.create 64;
      honest = Hashtbl.create 64;
      answered = Hashtbl.create 64;
      disk = Hashtbl.create 8;
      deaths = Array.make sch.shards [];
      reached = Hashtbl.create 16;
    }
  in
  List.iteri
    (fun j state ->
      let key = Shard.content_key (request ~poison:sch.poison ~id:"" j) in
      let entry =
        {
          S.t_op = "protect"; t_status = "done"; t_worker = 0; t_ts = J.Float 1.0;
          t_tail = Printf.sprintf {|,"digest":"%s"|} (digest key);
        }
      in
      if state = 1 then Hashtbl.replace sim.disk key (Some entry)
      else if state = 2 then Hashtbl.replace sim.disk key None)
    sch.disk;
  let trace = Trace.create ~capacity:8192 () in
  sim.core <-
    Some
      (S.create ~obs:(Obs.create ~trace ()) ~on_event:(on_event sim) ~now:sim.now
         ~children:sch.shards ~window:sch.window ~audit_every:sch.audit_every
         ~backend:Sofia.Transform.Backend_id.Sofia (effects sim));
  List.iter
    (fun ev ->
      step sim ev;
      S.tick (core sim) ~now:sim.now;
      check_settled sim)
    sch.events;
  drain sim;
  let stats = S.stats (core sim) in
  if not (S.conserved stats) then
    fail "every line answered, but %d admitted jobs are unsettled" (S.unsettled stats);
  if stats.S.hangs > 0 then reach sim "watchdog hang kill";
  if stats.S.coalesced > 0 then reach sim "coalesced release";
  Trace.iteri trace (fun _ -> function
    | Event.Service_error { kind = "fleet_reaudit"; _ } -> reach sim "re-audit on a third shard"
    | Event.Service_error { kind = "fleet_audit_abandoned"; _ } -> reach sim "abandoned audit"
    | Event.Service_error { kind = "fleet_probation_death"; _ } -> reach sim "probation death"
    | _ -> ());
  Hashtbl.iter
    (fun name () ->
      Hashtbl.replace coverage name (1 + Option.value ~default:0 (Hashtbl.find_opt coverage name)))
    sim.reached;
  sim

let run_schedule sch =
  ignore (simulate sch);
  true

(* ---- schedules ------------------------------------------------------ *)

(* A schedule with a liar keeps one designated honest shard up: kills
   strike only the others (the liar included), and there are no hangs,
   failed restarts or poison, and clock steps too short for the
   watchdog. Otherwise a lone surviving liar would rightly serve
   unaudited, and the payload check would flag the schedule, not the
   core. *)
let gen_schedule =
  let open QCheck2.Gen in
  let* shards = int_range 2 4 in
  let* clients = int_range 1 3 in
  let* window = int_range 1 4 in
  let* liar = frequency [ (3, return None); (1, map Option.some (int_bound (shards - 1))) ] in
  let calm = liar <> None in
  let* honest =
    match liar with
    | Some l -> map (fun i -> (l + 1 + i) mod shards) (int_bound (shards - 2))
    | None -> return (-1)
  in
  let* poison = if calm then return false else bool in
  let* audit_every = if calm then return 1 else int_range 0 2 in
  let* disk = list_repeat jobs (int_bound 2) in
  (* a stormy schedule flaps shard 0 on a short clock: it keeps
     answering between crashes, so what stops it is the count of its
     deaths within [death_window_s] reaching [death_limit], not a run
     of deaths with no answer between them *)
  let* stormy = if calm then return false else bool in
  let shard = int_bound (shards - 1) in
  let killable =
    if calm then map (fun i -> if i >= honest then i + 1 else i) (int_bound (shards - 2))
    else shard
  in
  let client = int_bound (clients - 1) in
  let ev =
    frequency
      ([ (30, map2 (fun c j -> Send (c, j)) client (int_bound jobs));
         (2, map (fun c -> Garbage c) client);
         (30, map2 (fun k i -> Respond (k, i)) shard (int_bound 7));
         ( (if stormy then 30 else 10),
           map (fun ms -> Advance ms) (int_range 1 (if calm then 30 else 300)) );
         (2, map (fun k -> Kill k) killable);
         (6, map (fun k -> Eof k) killable) ]
      @
      if calm then []
      else
        [ ((if stormy then 8 else 0), return (Flap 0));
          (2, map (fun k -> Hang k) shard);
          (2, map (fun k -> Fail_restart k) shard);
          ((if stormy then 0 else 3), map (fun s -> Advance (1000 * s)) (int_range 1 12));
          (1, map (fun s -> Advance (1000 * s)) (int_range 30 40)) ])
  in
  let* events = list_size (int_range 10 (if stormy then 250 else 150)) ev in
  return { shards; clients; window; audit_every; liar; poison; disk; events }

let show_ev = function
  | Send (c, j) -> Printf.sprintf "send c%d j%d" c j
  | Garbage c -> Printf.sprintf "garbage c%d" c
  | Respond (k, i) -> Printf.sprintf "respond s%d #%d" k i
  | Kill k -> Printf.sprintf "kill s%d" k
  | Eof k -> Printf.sprintf "eof s%d" k
  | Flap k -> Printf.sprintf "flap s%d" k
  | Hang k -> Printf.sprintf "hang s%d" k
  | Fail_restart k -> Printf.sprintf "fail-restart s%d" k
  | Advance ms -> Printf.sprintf "+%dms" ms
  | Signal -> "signal"

let show sch =
  Printf.sprintf "shards=%d clients=%d window=%d audit_every=%d liar=%s poison=%b disk=[%s]\n%s"
    sch.shards sch.clients sch.window sch.audit_every
    (match sch.liar with Some k -> string_of_int k | None -> "-")
    sch.poison
    (String.concat ";" (List.map string_of_int sch.disk))
    (String.concat "; " (List.map show_ev sch.events))

let prop =
  QCheck2.Test.make ~count:1000
    ~name:"fault schedules: exactly once, honest, within the death limit"
    ~print:show gen_schedule run_schedule

let test_schedules =
  let name, speed, run = QCheck_alcotest.to_alcotest ~speed_level:`Quick prop in
  ( name,
    speed,
    fun () ->
      Hashtbl.reset coverage;
      run ();
      List.iter
        (fun name ->
          Printf.printf "%-40s %4d schedules\n" name
            (Option.value ~default:0 (Hashtbl.find_opt coverage name)))
        transitions;
      List.iter
        (fun name ->
          if not (Hashtbl.mem coverage name) then Alcotest.failf "never reached: %s" name)
        transitions )

(* The shrunk schedule behind the abandoned-audit fault: the liar
   answers a primary whose audit sits on shard 0, and shard 0 dies. An
   abandoned audit served the liar's answer unverified; a re-audit on a
   third shard outvotes it. *)
let reaudit_schedule () =
  let shards = 4 and liar = 1 in
  let j =
    List.find
      (fun j -> Shard.route ~shards (request ~poison:false ~id:"" j) = liar)
      (List.init jobs Fun.id)
  in
  { shards; clients = 1; window = 4; audit_every = 1; liar = Some liar; poison = false;
    disk = List.init jobs (fun _ -> 0); events = [ Send (0, j); Kill 0; Eof 0 ] }

(* A primary re-shed onto its own audit's shard: two jobs homed on
   shard 0 (window 1, so the second waits in the queue) are audited on
   the liar, shard 0 dies three times and is quarantined, and the
   parked job moves to the liar. The liar's two answers agree with each
   other; the audit must go to a third shard instead of vouching. *)
let reshed_schedule () =
  let shards = 3 and liar = 1 in
  let a, k =
    match
      List.filter
        (fun j -> Shard.route ~shards (request ~poison:false ~id:"" j) = 0)
        (List.init jobs Fun.id)
    with
    | a :: k :: _ -> (a, k)
    | _ -> failwith "fewer than two jobs route to shard 0"
  in
  let death = [ Kill 0; Eof 0; Advance 100 ] in
  { shards; clients = 1; window = 1; audit_every = 1; liar = Some liar; poison = false;
    disk = List.init jobs (fun _ -> 0);
    events = [ Send (0, a); Send (0, k) ] @ death @ death @ death }

(* A stormy flap, pinned: the shard a ping routes to answers one ping,
   crashes and is restarted, [death_limit] times on a 100 ms clock. Its
   answers between crashes do not save it, since deaths are counted
   over a window, not in a run: its [death_limit]th death within
   [death_window_s] quarantines it, after [death_limit - 1] restarts,
   and the next ping is re-shed. *)
let stormy_schedule () =
  let shards = 2 and ping = Send (0, jobs) in
  let k = Shard.route ~shards (request ~poison:false ~id:"" jobs) in
  let flap = [ ping; Flap k; Advance 100 ] in
  ( k,
    { shards; clients = 1; window = 1; audit_every = 0; liar = None; poison = false;
      disk = List.init jobs (fun _ -> 0);
      events = List.concat (List.init S.death_limit (fun _ -> flap)) @ [ ping ] } )

(* The same flap, then a signal while the quarantined shard is on
   probation with a probe out: the drain leaves it as it is, neither
   probed again nor killed by the watchdog, however long it takes. *)
let signal_schedule () =
  let k, sch = stormy_schedule () in
  (k, { sch with events = sch.events @ [ Advance 30_000; Advance 300; Signal; Advance 6_000 ] })

(* A poison job and an honest job homed on one shard and sent together
   in one window: the child dies on the poison job,
   which was sent first, [death_limit] times. Only the poison job is
   charged for the deaths, so it fails at the last one, and the honest
   job is re-shed and answered. The poison job can never be answered
   [done], so one failure and one [done] name the honest job's fate. *)
let poison_schedule () =
  let shards = 2 in
  let route j = Shard.route ~shards (request ~poison:true ~id:"" j) in
  let home = route 0 in
  let j = List.find (fun j -> j > 0 && route j = home) (List.init jobs Fun.id) in
  let death = [ Flap home; Advance 100 ] in
  { shards; clients = 1; window = 2; audit_every = 0; liar = None; poison = true;
    disk = List.init jobs (fun _ -> 0);
    events = [ Send (0, 0); Send (0, j) ] @ List.concat (List.init S.death_limit (fun _ -> death)) }

let regression ?(expect = fun _ -> true) name sch =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1 ~name ~print:show (QCheck2.Gen.return sch) (fun sch ->
         expect (simulate sch)))

let suite =
  let k, stormy = stormy_schedule () in
  let pk, signal = signal_schedule () in
  [ test_schedules;
    regression "re-audit when the audit's shard dies" (reaudit_schedule ());
    regression "re-audit when the primary joins its audit" (reshed_schedule ());
    regression "a shard that answers between crashes is quarantined" stormy ~expect:(fun sim ->
        let s = S.stats (core sim) in
        let ss = s.S.shards.(k) in
        Hashtbl.mem sim.reached "breaker quarantine"
        && s.S.quar_breaker = 1 && ss.S.ss_deaths = S.death_limit
        && ss.S.ss_restarts = S.death_limit - 1
        && ss.S.ss_done = S.death_limit
        && s.S.resheds >= 1);
    regression "a signalled drain leaves a shard on probation alone" signal ~expect:(fun sim ->
        (S.stats (core sim)).S.shards.(pk).S.ss_quarantined
        && sim.procs.(pk).alive
        && not (Hashtbl.mem sim.reached "probation death"));
    regression "a dead child's death is charged to the job it ran" (poison_schedule ())
      ~expect:(fun sim ->
        let s = S.stats (core sim) in
        Hashtbl.mem sim.reached "redispatch-limit failure"
        && s.S.failed = 1 && s.S.done_ = 1 && s.S.quar_breaker = 1) ]
