(* Fleet-mode battery: the deterministic shard map as a property, the
   router's exactly-once delivery under child kill/breaker/drain, the
   replay cache's byte-identity guarantee (across restarts and tampered
   entries), the fleet-scope faults — per-shard clock skew, a lying
   child, a poisoned shard store, a client flood, a slow-loris reader,
   a child that cannot start — and the child-engine fix the fleet
   motivated (a raising response callback must never cost a worker or
   a settle).

   Everything multi-process here drives the *real* router
   (Sofia.Fleet.Router.run) over real [sofia_cli serve --stdin]
   children on pipes — no mocks; the CLI binary is a declared test
   dep. *)

module Job = Sofia.Service.Job
module Json = Sofia.Obs.Json
module Engine = Sofia.Service.Engine
module FR = Sofia.Fleet.Router
module FS = Sofia.Fleet.Shard

let cli = "../bin/sofia_cli.exe"
let have_cli () = Sys.file_exists cli

let sources =
  [|
    ".equ OUT, 0xFFFF0000\nmain:\n  addi t0, zero, 1\n  la a6, OUT\n  st t0, 0(a6)\n  halt\n";
    ".equ OUT, 0xFFFF0000\nmain:\n  addi t0, zero, 2\n  la a6, OUT\n  st t0, 0(a6)\n  halt\n";
    "start:\n  mv a0, a1\n  j target\ntarget:\n  mv a1, a2\n  halt\n";
    "start:\n  call f\n  call f\n  halt\nf:\n  addi a0, a0, 1\n  ret\n";
  |]

let mixed_request i =
  let source = sources.(i mod Array.length sources) in
  let id = Printf.sprintf "flt-%03d" i in
  match i mod 4 with
  | 0 -> Job.make ~id (Job.Protect { source })
  | 1 -> Job.make ~id (Job.Verify { source })
  | 2 -> Job.make ~id (Job.Attest { source })
  | _ -> Job.make ~id (Job.Simulate { source; sofia = true })

(* pin [want] jobs onto (or off) a shard by scanning the nonce space —
   the route is a pure function of the request content, so this is
   exact *)
let pinned_jobs ~children ~pred ~prefix source want =
  let rec go acc n nonce =
    if n = want || nonce > 254 then List.rev acc
    else
      let j =
        Job.make ~id:(Printf.sprintf "%s-%d" prefix n) ~nonce (Job.Protect { source })
      in
      if pred (FS.route ~shards:children j) then go (j :: acc) (n + 1) (nonce + 1)
      else go acc n (nonce + 1)
  in
  go [] 0 1

let lines_of jobs = List.map (fun r -> Json.to_string (Job.request_to_json r)) jobs

let write_lines path lines =
  let oc = open_out path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc

let read_responses path =
  let responses = ref [] in
  let ic = open_in path in
  (try
     while true do
       let line = input_line ic in
       match Json.parse_opt line with
       | Some j -> responses := j :: !responses
       | None -> Alcotest.failf "router emitted a non-JSON line: %s" line
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !responses

(* Run an in-process router on [clients], one list of request lines
   each, every client reading from its own temp file and answered into
   another (no pipe can fill, whatever the job count). [serve] is the
   router entry point for the opened fd pairs. Returns (responses per
   client, stats, fleet metrics document). *)
let fleet_serve ~tweak ~serve clients =
  let files =
    List.map
      (fun lines ->
        let i = Filename.temp_file "sofia_fleet_in" ".ndjson" in
        let o = Filename.temp_file "sofia_fleet_out" ".ndjson" in
        write_lines i lines;
        (i, o))
      clients
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (i, o) ->
          List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ i; o ])
        files)
    (fun () ->
      let fds =
        List.map
          (fun (i, o) ->
            ( Unix.openfile i [ Unix.O_RDONLY ] 0,
              Unix.openfile o [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 ))
          files
      in
      let stats, doc =
        Fun.protect
          ~finally:(fun () ->
            List.iter
              (fun (i, o) ->
                (try Unix.close i with Unix.Unix_error _ -> ());
                try Unix.close o with Unix.Unix_error _ -> ())
              fds)
          (fun () -> serve (tweak { FR.default_config with FR.cli = cli }) fds)
      in
      (List.map (fun (_, o) -> read_responses o) files, stats, doc))

(* One client through [Router.run] (the [fleet --stdin] path). *)
let fleet_run ?(tweak = fun (c : FR.config) -> c) lines =
  let serve cfg = function
    | [ (cin, cout) ] -> FR.run cfg ~client_in:cin ~client_out:cout
    | _ -> invalid_arg "fleet_run"
  in
  match fleet_serve ~tweak ~serve [ lines ] with
  | [ rs ], stats, doc -> (rs, stats, doc)
  | _ -> assert false

(* Several concurrent clients through [Router.run_clients]. *)
let fleet_run_clients ?(tweak = fun (c : FR.config) -> c) clients =
  fleet_serve ~tweak ~serve:(fun cfg fds -> FR.run_clients cfg ~clients:fds) clients

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n > 0 && go 0

let r_str k j = match Json.member k j with Some (Json.Str s) -> Some s | _ -> None
let r_status j = Option.value ~default:"?" (r_str "status" j)

let check_ids_once ids rs =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun j ->
      match r_str "id" j with
      | Some id ->
        Hashtbl.replace seen id (1 + Option.value ~default:0 (Hashtbl.find_opt seen id))
      | None -> Alcotest.fail "response lacks an id")
    rs;
  List.iter
    (fun id ->
      match Hashtbl.find_opt seen id with
      | Some 1 -> ()
      | Some n -> Alcotest.failf "id %s answered %d times" id n
      | None -> Alcotest.failf "id %s never answered" id)
    ids;
  Alcotest.(check int) "no extra responses" (List.length ids) (Hashtbl.length seen)

(* scheduling metadata legitimately differs across processes/runs *)
let volatile = [ "id"; "seq"; "completion"; "attempts"; "worker"; "latency_ms"; "ts_unix"; "cached" ]

let payload_fingerprint j =
  match j with
  | Json.Obj fields ->
    Json.to_string (Json.Obj (List.filter (fun (k, _) -> not (List.mem k volatile)) fields))
  | _ -> Alcotest.fail "response is not a JSON object"

(* ---- the shard map, as properties ---- *)

let prop_route_deterministic =
  QCheck.Test.make ~count:300 ~name:"route: pure, in range, id-independent"
    QCheck.(triple (int_range 1 8) (int_range 0 255) small_string)
    (fun (shards, nonce, salt) ->
      let source = sources.(nonce mod Array.length sources) ^ salt in
      let j1 = Job.make ~id:"a" ~nonce (Job.Protect { source }) in
      let j2 = Job.make ~id:"completely-different-id" ~nonce (Job.Protect { source }) in
      let k = FS.route ~shards j1 in
      k >= 0 && k < shards && FS.route ~shards j1 = k && FS.route ~shards j2 = k)

let prop_route_op_affinity =
  QCheck.Test.make ~count:200 ~name:"route: op-independent (store affinity)"
    QCheck.(pair (int_range 1 8) (int_range 0 255))
    (fun (shards, nonce) ->
      let source = sources.(nonce mod Array.length sources) in
      let mk spec = Job.make ~id:"x" ~nonce spec in
      let k = FS.route ~shards (mk (Job.Protect { source })) in
      FS.route ~shards (mk (Job.Verify { source })) = k
      && FS.route ~shards (mk (Job.Attest { source })) = k
      && FS.route ~shards (mk (Job.Simulate { source; sofia = true })) = k)

let prop_backend_in_shard_keys =
  (* PR 8: the protection backend is part of the image identity, so it
     must be part of both shard keys — an SCFP job must never route to
     (or replay from) the SOFIA artifact for the same source. Explicit
     SOFIA must collapse onto the field-less encoding, keeping
     all-SOFIA shard maps byte-identical to pre-backend routers. *)
  QCheck.Test.make ~count:200
    ~name:"shard keys: backend separates, sofia stays byte-stable"
    QCheck.(pair (int_range 0 255) small_string)
    (fun (nonce, salt) ->
      let source = sources.(nonce mod Array.length sources) ^ salt in
      let mk ?backend () = Job.make ~id:"x" ~nonce ?backend (Job.Protect { source }) in
      let plain = mk () in
      let sofia = mk ~backend:Sofia.Transform.Backend_id.Sofia () in
      let scfp = mk ~backend:Sofia.Transform.Backend_id.Scfp () in
      FS.route_key sofia = FS.route_key plain
      && FS.content_key sofia = FS.content_key plain
      && FS.route_key scfp <> FS.route_key plain
      && FS.content_key scfp <> FS.content_key plain
      && FS.route ~shards:1 scfp = 0)

let test_route_coverage () =
  (* the map must actually spread load: over a modest nonce scan every
     shard of a 3-way fleet sees traffic *)
  let children = 3 in
  let counts = Array.make children 0 in
  for nonce = 1 to 64 do
    let j = Job.make ~id:"c" ~nonce (Job.Protect { source = sources.(0) }) in
    let k = FS.route ~shards:children j in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iteri
    (fun k c ->
      if c = 0 then Alcotest.failf "shard %d got no traffic over 64 nonces" k)
    counts

let test_content_key_vs_route_key () =
  let source = sources.(0) in
  let p = Job.make ~id:"x" (Job.Protect { source }) in
  let v = Job.make ~id:"x" (Job.Verify { source }) in
  Alcotest.(check string) "route_key ignores the op" (FS.route_key p) (FS.route_key v);
  Alcotest.(check bool) "content_key separates ops" true
    (FS.content_key p <> FS.content_key v);
  Alcotest.(check bool) "protect is replayable" true (FS.replayable p);
  Alcotest.(check bool) "ping is not replayable" false
    (FS.replayable (Job.make ~id:"p" Job.Ping))

(* ---- end-to-end through real children ---- *)

let test_mix_matches_oneshot () =
  if not (have_cli ()) then Alcotest.skip ()
  else begin
    let n = 24 in
    let jobs = List.init n mixed_request in
    let rs, st, _ = fleet_run (lines_of jobs) in
    check_ids_once (List.map (fun (j : Job.request) -> j.Job.id) jobs) rs;
    Alcotest.(check bool) "conserved" true (FR.conserved st);
    List.iter
      (fun j ->
        let id = Option.get (r_str "id" j) in
        Alcotest.(check string) (id ^ " status") "done" (r_status j);
        let i = int_of_string (String.sub id 4 3) in
        let req = mixed_request i in
        let oneshot =
          Job.response_to_json
            { Job.id; op = Job.op_name req.Job.spec;
              status = Engine.execute_oneshot req;
              seq = 0; completion = 0; attempts = 1; worker = 0;
              latency_ms = 0.0; ts = 0.0 }
        in
        if payload_fingerprint j <> payload_fingerprint oneshot then
          Alcotest.failf "%s: fleet payload differs from one-shot" id)
      rs
  end

let test_replay_byte_identical () =
  if not (have_cli ()) then Alcotest.skip ()
  else begin
    (* one distinct image requested under ten different ids: every
       response must carry the same payload bytes, and at most one may
       have been computed by a child *)
    let jobs =
      List.init 10 (fun i ->
          Job.make ~id:(Printf.sprintf "dup-%d" i) ~nonce:7
            (Job.Protect { source = sources.(0) }))
    in
    let rs, st, _ = fleet_run (lines_of jobs) in
    check_ids_once (List.map (fun (j : Job.request) -> j.Job.id) jobs) rs;
    let prints = List.sort_uniq compare (List.map payload_fingerprint rs) in
    Alcotest.(check int) "all ten payloads byte-identical" 1 (List.length prints);
    Alcotest.(check bool) "replay cache actually served" true (st.FR.replays >= 1);
    Alcotest.(check bool) "at most one dispatch reached a child" true
      (st.FR.replays + st.FR.coalesced >= 9);
    Alcotest.(check bool) "conserved" true (FR.conserved st)
  end

(* The steady state a long-running router lives in: the mix sent again
   once every first-pass answer is back must come entirely from the
   replay cache. A warm-pass job that reached a child would carry a
   nonzero [attempts]; the router's own replays carry 0. *)
let test_warm_pass_routes_nothing () =
  if not (have_cli ()) then Alcotest.skip ()
  else begin
    let jobs = List.init 24 mixed_request in
    let lines = lines_of jobs in
    let req_r, req_w = Unix.pipe ~cloexec:true () in
    let resp_r, resp_w = Unix.pipe ~cloexec:true () in
    let client =
      Domain.spawn (fun () ->
          let oc = Unix.out_channel_of_descr req_w in
          let ic = Unix.in_channel_of_descr resp_r in
          let pass () =
            List.iter
              (fun l ->
                output_string oc l;
                output_char oc '\n')
              lines;
            flush oc;
            List.map (fun _ -> Option.get (Json.parse_opt (input_line ic))) lines
          in
          let cold = pass () in
          let warm = pass () in
          close_out oc;
          close_in ic;
          (cold, warm))
    in
    let st, _ =
      FR.run { FR.default_config with FR.cli = cli } ~client_in:req_r ~client_out:resp_w
    in
    Unix.close req_r;
    Unix.close resp_w;
    let cold, warm = Domain.join client in
    let ids = List.map (fun (j : Job.request) -> j.Job.id) jobs in
    check_ids_once ids cold;
    check_ids_once ids warm;
    let fp rs =
      List.sort compare
        (List.map (fun j -> (Option.get (r_str "id" j), payload_fingerprint j)) rs)
    in
    Alcotest.(check bool) "warm payloads byte-identical to cold" true (fp cold = fp warm);
    List.iter
      (fun j ->
        if Json.member "attempts" j <> Some (Json.Int 0) then
          Alcotest.failf "warm-pass %s reached a child" (Option.get (r_str "id" j)))
      warm;
    Alcotest.(check bool) "conserved" true (FR.conserved st)
  end

let test_child_kill_exactly_once () =
  if not (have_cli ()) then Alcotest.skip ()
  else begin
    let children = 3 in
    let victim = 0 in
    let jobs =
      pinned_jobs ~children ~pred:(fun k -> k = victim) ~prefix:"kv" sources.(2) 10
      @ pinned_jobs ~children ~pred:(fun k -> k <> victim) ~prefix:"ko" sources.(2) 4
    in
    let pids = Array.make children (-1) in
    let killed = ref false in
    let on_event = function
      | FR.Child_up (k, pid) -> pids.(k) <- pid
      | FR.Client_response n ->
        if n >= 2 && not !killed then begin
          killed := true;
          try Unix.kill pids.(victim) Sys.sigkill with Unix.Unix_error _ -> ()
        end
      | FR.Child_down _ | FR.Child_rejoin _ -> ()
    in
    let rs, st, _ =
      fleet_run
        ~tweak:(fun c -> { c with FR.children; window = 4; on_event = Some on_event })
        (lines_of jobs)
    in
    Alcotest.(check bool) "a child was killed" true !killed;
    check_ids_once (List.map (fun (j : Job.request) -> j.Job.id) jobs) rs;
    List.iter (fun j -> Alcotest.(check string) "status" "done" (r_status j)) rs;
    Alcotest.(check bool) "death detected" true (st.FR.deaths >= 1);
    Alcotest.(check bool) "child restarted" true (st.FR.restarts >= 1);
    Alcotest.(check bool) "conserved" true (FR.conserved st)
  end

let test_breaker_quarantine_and_reshed () =
  if not (have_cli ()) then Alcotest.skip ()
  else begin
    let children = 3 in
    let marker = "FLEET-TEST-POISON" in
    let poison =
      Job.make ~id:"poison" ~nonce:11 (Job.Protect { source = sources.(0) ^ "\n" ^ marker })
    in
    let pshard = FS.route ~shards:children poison in
    let healthy =
      pinned_jobs ~children ~pred:(fun k -> k = pshard) ~prefix:"hb" sources.(0) 4
    in
    let rs, st, _ =
      fleet_run
        ~tweak:(fun c ->
          { c with
            FR.children; window = 1;
            child_extra_args = Some (fun _ -> [ "--test-exit"; marker ]) })
        (lines_of (poison :: healthy))
    in
    check_ids_once ("poison" :: List.map (fun (j : Job.request) -> j.Job.id) healthy) rs;
    List.iter
      (fun j ->
        let id = Option.get (r_str "id" j) in
        Alcotest.(check string) (id ^ " status")
          (if id = "poison" then "failed" else "done")
          (r_status j))
      rs;
    Alcotest.(check bool) "breaker quarantined the shard" true (st.FR.quarantines >= 1);
    Alcotest.(check bool) "healthy traffic re-shed" true (st.FR.resheds >= 1);
    Alcotest.(check bool) "conserved" true (FR.conserved st)
  end

let test_malformed_at_router () =
  if not (have_cli ()) then Alcotest.skip ()
  else begin
    let good = List.init 4 mixed_request in
    (* a request line past the 1 MiB cap: dropped unread, one error *)
    let huge =
      "{\"id\":\"huge\",\"op\":\"protect\",\"source\":\""
      ^ String.make (2 * Sofia.Util.Lines.max_line) 'x' ^ "\"}"
    in
    let lines =
      [ "this is not json"; "{\"op\":\"protect\"}"; "{\"id\":\"trunc\",\"op\":\"prot";
        "{\"id\":\"badop\",\"op\":\"detonate\",\"source\":\"halt\"}"; huge ]
      @ lines_of good
      @ [ "{\"id\":\"bad-nonce\",\"op\":\"protect\",\"source\":\"halt\",\"nonce\":9999}" ]
    in
    let rs, st, _ = fleet_run ~tweak:(fun c -> { c with FR.children = 2 }) lines in
    (* every input line — including garbage — gets exactly one response
       line, and the children never see the garbage *)
    Alcotest.(check int) "one response per input line" (List.length lines)
      (List.length rs);
    Alcotest.(check int) "every line received" (List.length lines) st.FR.received;
    Alcotest.(check int) "malformed counted" 6 st.FR.malformed;
    Alcotest.(check int) "only the good lines became jobs" (List.length good) st.FR.submitted;
    Alcotest.(check int) "no child deaths" 0 st.FR.deaths;
    List.iter
      (fun j ->
        match r_str "id" j with
        | Some id when String.length id >= 4 && String.sub id 0 4 = "flt-" ->
          Alcotest.(check string) (id ^ " status") "done" (r_status j)
        | _ -> Alcotest.(check string) "garbage status" "error" (r_status j))
      rs;
    Alcotest.(check bool) "conserved" true (FR.conserved st)
  end

(* A child's answer must fit the router's line cap, or the router takes
   it for torn NDJSON and the child for dead. The assembler quotes an
   unknown mnemonic with %S (\255 for a 0xff byte) and JSON doubles the
   backslash, so this 256 KiB token would be a 1.3 MB error if the
   engine did not clip a failure's text. *)
let test_long_failure_fits_the_cap () =
  if not (have_cli ()) then Alcotest.skip ()
  else begin
    let req =
      Job.make ~id:"long-token" (Job.Protect { source = String.make (256 * 1024) '\255' })
    in
    let rs, st, _ = fleet_run ~tweak:(fun c -> { c with FR.children = 1 }) (lines_of [ req ]) in
    check_ids_once [ "long-token" ] rs;
    let oneshot =
      Job.response_to_json
        { Job.id = "long-token"; op = "protect"; status = Engine.execute_oneshot req;
          seq = 0; completion = 0; attempts = 1; worker = 0; latency_ms = 0.0; ts = 0.0 }
    in
    Alcotest.(check int) "no child deaths" 0 st.FR.deaths;
    List.iter
      (fun j ->
        Alcotest.(check string) "status" "failed" (r_status j);
        Alcotest.(check bool) "the one-shot payload" true
          (payload_fingerprint j = payload_fingerprint oneshot))
      rs;
    Alcotest.(check bool) "conserved" true (FR.conserved st)
  end

let test_ping_round_trip () =
  if not (have_cli ()) then Alcotest.skip ()
  else begin
    let jobs = List.init 3 (fun i -> Job.make ~id:(Printf.sprintf "ping-%d" i) Job.Ping) in
    let rs, st, _ = fleet_run ~tweak:(fun c -> { c with FR.children = 2 }) (lines_of jobs) in
    check_ids_once (List.map (fun (j : Job.request) -> j.Job.id) jobs) rs;
    List.iter
      (fun j ->
        Alcotest.(check string) "pong" "done" (r_status j);
        match Json.member "shard" j with
        | Some (Json.Int k) when k >= 0 && k < 2 -> ()
        | _ -> Alcotest.fail "pong lacks a valid shard id")
      rs;
    Alcotest.(check int) "pings are never replayed" 0 st.FR.replays
  end

let test_window_one_conservation () =
  if not (have_cli ()) then Alcotest.skip ()
  else begin
    let n = 30 in
    let jobs = List.init n mixed_request in
    let rs, st, _ =
      fleet_run ~tweak:(fun c -> { c with FR.children = 2; window = 1 }) (lines_of jobs)
    in
    check_ids_once (List.map (fun (j : Job.request) -> j.Job.id) jobs) rs;
    List.iter (fun j -> Alcotest.(check string) "status" "done" (r_status j)) rs;
    Alcotest.(check int) "no deaths under backpressure" 0 st.FR.deaths;
    Alcotest.(check bool) "conserved" true (FR.conserved st)
  end

(* ---- start-up failure, persistent replay ---- *)

let test_child_fails_at_start () =
  if not (have_cli ()) then Alcotest.skip ()
  else begin
    (* shard 1's child exits on an unknown flag before it answers its
       ready ping: the start fails naming that shard, no shard is
       reported up, and the healthy shard 0 is killed, not leaked *)
    let ups = ref 0 in
    (match
       fleet_run
         ~tweak:(fun c ->
           { c with
             FR.children = 2;
             child_extra_args = Some (fun k -> if k = 1 then [ "--no-such-flag" ] else []);
             on_event = Some (function FR.Child_up _ -> incr ups | _ -> ());
           })
         (lines_of (List.init 2 mixed_request))
     with
     | _ -> Alcotest.fail "a fleet started with a child that cannot start"
     | exception Sofia.Fleet.Child.Child_failed m ->
       Alcotest.(check bool) ("the error names shard 1: " ^ m) true
         (contains ~needle:"shard child 1" m));
    Alcotest.(check int) "no shard reported up" 0 !ups;
    (* every child this process ever spawned has been reaped: none left
       running (a zombie an earlier test left is reaped on the way) *)
    let rec none_running () =
      match Unix.waitpid [ Unix.WNOHANG ] (-1) with
      | 0, _ -> Alcotest.fail "a child process is still running"
      | _ -> none_running ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    none_running ()
  end

let rec rm_rf p =
  if Sys.is_directory p then begin
    Array.iter (fun n -> rm_rf (Filename.concat p n)) (Sys.readdir p);
    Unix.rmdir p
  end
  else Sys.remove p

let test_replay_survives_restart () =
  if not (have_cli ()) then Alcotest.skip ()
  else begin
    (* same requests through two *separate* fleets sharing a replay
       dir: the second must answer everything from disk, dispatching
       nothing, with byte-identical payloads *)
    let dir = Filename.temp_file "sofia_fleet_warm" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
      (fun () ->
        let jobs =
          List.init 6 (fun i ->
              Job.make ~id:(Printf.sprintf "warm-%d" i) ~nonce:(i + 1)
                (Job.Protect { source = sources.(0) }))
        in
        let tweak c = { c with FR.children = 2; FR.replay_dir = Some dir } in
        let r1, st1, _ = fleet_run ~tweak (lines_of jobs) in
        let r2, st2, doc2 = fleet_run ~tweak (lines_of jobs) in
        let ids = List.map (fun (j : Job.request) -> j.Job.id) jobs in
        check_ids_once ids r1;
        check_ids_once ids r2;
        List.iter
          (fun j -> Alcotest.(check string) "status" "done" (r_status j))
          (r1 @ r2);
        let routed st =
          Array.fold_left (fun a ss -> a + ss.FR.ss_routed) 0 st.FR.shards
        in
        Alcotest.(check int) "cold run dispatched every image" 6 (routed st1);
        Alcotest.(check int) "cold run had nothing on disk" 0 st1.FR.disk_replays;
        Alcotest.(check int) "warm run served everything from disk" 6
          st2.FR.disk_replays;
        Alcotest.(check int) "warm run never dispatched to a child" 0 (routed st2);
        Alcotest.(check bool) "warm reload found nothing corrupt" true
          (Option.bind (Json.member "replay_store" doc2) (Json.member "corrupt")
          = Some (Json.Int 0));
        let fp rs =
          List.sort compare
            (List.map (fun j -> (Option.get (r_str "id" j), payload_fingerprint j)) rs)
        in
        Alcotest.(check bool) "payloads byte-identical across the restart" true
          (fp r1 = fp r2);
        Alcotest.(check bool) "conserved (cold)" true (FR.conserved st1);
        Alcotest.(check bool) "conserved (warm)" true (FR.conserved st2);
        (* one sealed entry tampered before a third router: the
           zero-trust reload counts it corrupt and routes that job to a
           child again; the spliced bytes are never served *)
        let victim =
          match List.sort compare (Array.to_list (Sys.readdir dir)) with
          | n :: _ -> Filename.concat dir n
          | [] -> Alcotest.fail "the replay dir is empty"
        in
        let b = Bytes.of_string (In_channel.with_open_bin victim In_channel.input_all) in
        let i = Bytes.length b / 2 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
        Out_channel.with_open_bin victim (fun oc -> Out_channel.output_bytes oc b);
        let r3, st3, doc3 = fleet_run ~tweak (lines_of jobs) in
        check_ids_once ids r3;
        List.iter (fun j -> Alcotest.(check string) "status" "done" (r_status j)) r3;
        Alcotest.(check int) "the intact entries replayed from disk" 5 st3.FR.disk_replays;
        Alcotest.(check int) "only the tampered key reached a child" 1 (routed st3);
        Alcotest.(check bool) "one corrupt entry counted" true
          (Option.bind (Json.member "replay_store" doc3) (Json.member "corrupt")
          = Some (Json.Int 1));
        Alcotest.(check bool) "payloads byte-identical after the tamper" true (fp r1 = fp r3);
        Alcotest.(check bool) "conserved (tampered)" true (FR.conserved st3))
  end

(* ---- fleet-scope faults: skew, a liar, a poisoned store, crowds ---- *)

let all_done rs = List.iter (fun j -> Alcotest.(check string) "status" "done" (r_status j)) rs
let ids_of jobs = List.map (fun (j : Job.request) -> j.Job.id) jobs

let test_clock_skew () =
  if not (have_cli ()) then Alcotest.skip ()
  else begin
    (* one child's wall clock runs 12 h ahead: deadlines are monotonic,
       so none of the generous ones may fire, and each response's
       timestamp shows which clock its shard read *)
    let children = 3 and skewed = 1 in
    let jobs =
      pinned_jobs ~children ~pred:(fun k -> k = skewed) ~prefix:"sk" sources.(0) 6
      @ pinned_jobs ~children ~pred:(fun k -> k <> skewed) ~prefix:"sn" sources.(0) 6
    in
    let extra k = if k = skewed then [ "--test-wall-skew"; "43200" ] else [] in
    let rs, st, _ =
      fleet_run
        ~tweak:(fun c ->
          { c with
            FR.children; audit_every = 0; default_deadline_ms = Some 60_000;
            child_extra_args = Some extra })
        (lines_of jobs)
    in
    check_ids_once (ids_of jobs) rs;
    all_done rs;
    Alcotest.(check int) "nothing timed out" 0 st.FR.timed_out;
    let horizon = Unix.gettimeofday () +. 21_600.0 in
    List.iter
      (fun j ->
        let ts =
          match Json.member "ts_unix" j with
          | Some (Json.Float f) -> f
          | Some (Json.Int n) -> float_of_int n
          | _ -> Alcotest.fail "response lacks ts_unix"
        in
        Alcotest.(check bool)
          (Option.get (r_str "id" j) ^ " stamped by its shard's clock")
          (Json.member "worker" j = Some (Json.Int skewed))
          (ts > horizon))
      rs;
    Alcotest.(check bool) "conserved" true (FR.conserved st)
  end

let test_digest_quarantine () =
  if not (have_cli ()) then Alcotest.skip ()
  else begin
    (* a child lies about every digest: with every distinct key
       audited, the vote convicts it and clients only ever see the
       digests the single-process pipeline computes *)
    let children = 3 and liar = 2 in
    let jobs =
      pinned_jobs ~children ~pred:(fun k -> k = liar) ~prefix:"dl" sources.(2) 6
      @ pinned_jobs ~children ~pred:(fun k -> k <> liar) ~prefix:"dh" sources.(2) 6
    in
    let oracle = Hashtbl.create 16 in
    List.iter
      (fun (req : Job.request) ->
        match Engine.execute_oneshot req with
        | Job.Done (Job.Protected { digest; _ }) -> Hashtbl.replace oracle req.Job.id digest
        | _ -> Alcotest.failf "%s: the one-shot oracle failed" req.Job.id)
      jobs;
    let extra k = if k = liar then [ "--test-flip-digest" ] else [] in
    let rs, st, _ =
      fleet_run
        ~tweak:(fun c -> { c with FR.children; audit_every = 1; child_extra_args = Some extra })
        (lines_of jobs)
    in
    check_ids_once (ids_of jobs) rs;
    all_done rs;
    List.iter
      (fun j ->
        let id = Option.get (r_str "id" j) in
        Alcotest.(check (option string)) (id ^ " digest is honest") (Hashtbl.find_opt oracle id)
          (r_str "digest" j))
      rs;
    Alcotest.(check bool) "the lie was caught" true (st.FR.digest_conflicts >= 1);
    Alcotest.(check bool) "the liar was quarantined for integrity" true
      (st.FR.quar_integrity >= 1);
    Alcotest.(check bool) "conserved" true (FR.conserved st)
  end

let digests rs =
  List.sort compare
    (List.filter_map
       (fun j ->
         match (r_str "id" j, r_str "digest" j) with
         | Some id, Some d -> Some (id, d)
         | _ -> None)
       rs)

let flip_middle path =
  let b = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
  let i = Bytes.length b / 2 in
  if Bytes.length b > 0 then begin
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b)
  end

let test_store_poison () =
  if not (have_cli ()) then Alcotest.skip ()
  else begin
    (* one shard's persistent store is tampered between two fleets: the
       second fleet's poisoned child counts corrupt misses, rebuilds,
       and serves the first fleet's digests *)
    let dir = Filename.temp_file "sofia_fleet_store" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
      (fun () ->
        let children = 3 and poisoned = 1 in
        let jobs =
          pinned_jobs ~children ~pred:(fun k -> k = poisoned) ~prefix:"sp" sources.(3) 4
          @ pinned_jobs ~children ~pred:(fun k -> k <> poisoned) ~prefix:"sq" sources.(3) 4
        in
        let tweak c = { c with FR.children; audit_every = 0; store_dir = Some dir } in
        let r1, st1, _ = fleet_run ~tweak (lines_of jobs) in
        let shard_dir = Filename.concat dir (Printf.sprintf "shard-%d" poisoned) in
        let files =
          List.filter
            (fun p -> not (Sys.is_directory p))
            (List.map (Filename.concat shard_dir) (Array.to_list (Sys.readdir shard_dir)))
        in
        Alcotest.(check bool) "the poisoned shard stored entries" true (files <> []);
        List.iter flip_middle files;
        let r2, st2, doc2 = fleet_run ~tweak (lines_of jobs) in
        check_ids_once (ids_of jobs) r1;
        check_ids_once (ids_of jobs) r2;
        all_done (r1 @ r2);
        Alcotest.(check bool) "digests stable across the tamper" true
          (digests r1 <> [] && digests r1 = digests r2);
        let corrupt =
          match Json.member "children_metrics" doc2 with
          | Some (Json.List kids) ->
            List.find_map
              (fun kid ->
                if Json.member "shard" kid = Some (Json.Int poisoned) then
                  match
                    Option.bind (Json.member "metrics" kid) (fun m ->
                        Option.bind (Json.member "disk" m) (Json.member "corrupt"))
                  with
                  | Some (Json.Int n) -> Some n
                  | _ -> None
                else None)
              kids
          | _ -> None
        in
        Alcotest.(check bool) "the poisoned child counted corrupt misses" true
          (match corrupt with Some n -> n > 0 | None -> false);
        Alcotest.(check bool) "conserved (clean)" true (FR.conserved st1);
        Alcotest.(check bool) "conserved (poisoned)" true (FR.conserved st2))
  end

let test_client_flood () =
  if not (have_cli ()) then Alcotest.skip ()
  else begin
    (* four clients send the same 25 jobs at once: each client is
       answered exactly once per id, all read the same payload bytes,
       and cross-client replay and coalescing keep every distinct job
       on one child *)
    let jobs =
      List.init 25 (fun i ->
          Job.make ~id:(Printf.sprintf "fl-%d" i) ~nonce:(i + 1)
            (Job.Protect { source = sources.(1) }))
    in
    let rss, st, _ =
      fleet_run_clients
        ~tweak:(fun c -> { c with FR.audit_every = 0 })
        (List.init 4 (fun _ -> lines_of jobs))
    in
    Alcotest.(check int) "received" 100 st.FR.received;
    List.iter
      (fun rs ->
        check_ids_once (ids_of jobs) rs;
        all_done rs)
      rss;
    let fp rs =
      List.sort compare
        (List.map (fun j -> (Option.get (r_str "id" j), payload_fingerprint j)) rs)
    in
    (match List.map fp rss with
     | m0 :: rest ->
       List.iter
         (fun m -> Alcotest.(check bool) "every client read the same payloads" true (m = m0))
         rest
     | [] -> Alcotest.fail "no client answered");
    let routed = Array.fold_left (fun a ss -> a + ss.FR.ss_routed) 0 st.FR.shards in
    Alcotest.(check int) "each distinct job reached one child" 25 routed;
    (* every other request was served from the cache tier: replayed
       outright, or parked behind the in-flight primary and released
       as a replay *)
    Alcotest.(check int) "the rest were replays" 75 st.FR.replays;
    Alcotest.(check bool) "conserved" true (FR.conserved st)
  end

let test_slow_loris () =
  if not (have_cli ()) then Alcotest.skip ()
  else begin
    (* a client floods duplicates and never reads a byte back: once its
       responses have backed up past the linger the router drops it,
       while a healthy client on the same fleet is answered in full and
       the dropped client's jobs still settle *)
    let dup =
      Json.to_string
        (Job.request_to_json (Job.make ~id:"loris" ~nonce:33 (Job.Protect { source = sources.(0) })))
    in
    let good =
      List.init 8 (fun i ->
          Job.make ~id:(Printf.sprintf "lg-%d" i) ~nonce:(i + 1)
            (Job.Protect { source = sources.(0) }))
    in
    let slow_in = Filename.temp_file "sofia_loris" ".ndjson" in
    let good_in = Filename.temp_file "sofia_loris_g" ".ndjson" in
    let good_out = Filename.temp_file "sofia_loris_g" ".out" in
    Fun.protect
      ~finally:(fun () -> List.iter Sys.remove [ slow_in; good_in; good_out ])
      (fun () ->
        (* 1,200 answers cannot fit a ~64 KiB pipe nobody drains *)
        write_lines slow_in (List.init 1_200 (fun _ -> dup));
        write_lines good_in (lines_of good);
        let sfd = Unix.openfile slow_in [ Unix.O_RDONLY ] 0 in
        let pr, pw = Unix.pipe ~cloexec:true () in
        let gin = Unix.openfile good_in [ Unix.O_RDONLY ] 0 in
        let gout = Unix.openfile good_out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
        let cfg =
          { FR.default_config with FR.cli = cli; audit_every = 0; client_linger_ms = 200 }
        in
        let st, _ =
          Fun.protect
            ~finally:(fun () ->
              List.iter
                (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
                [ sfd; pr; pw; gin; gout ])
            (fun () -> FR.run_clients cfg ~clients:[ (sfd, pw); (gin, gout) ])
        in
        let rs = read_responses good_out in
        check_ids_once (ids_of good) rs;
        all_done rs;
        Alcotest.(check int) "the slow client was dropped" 1 st.FR.slow_client_drops;
        Alcotest.(check bool) "conserved" true (FR.conserved st))
  end

(* ---- graceful drain of the whole fleet process ---- *)

let test_sigterm_drain_no_torn_output () =
  if not (have_cli ()) then Alcotest.skip ()
  else begin
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let req_r, req_w = Unix.pipe ~cloexec:true () in
    let resp_r, resp_w = Unix.pipe ~cloexec:true () in
    let pid =
      Unix.create_process cli
        [| cli; "fleet"; "--stdin"; "--children"; "2" |]
        req_r resp_w null
    in
    Unix.close null;
    Unix.close req_r;
    Unix.close resp_w;
    let oc = Unix.out_channel_of_descr req_w in
    let ic = Unix.in_channel_of_descr resp_r in
    let n = 16 in
    List.iter
      (fun l ->
        output_string oc l;
        output_char oc '\n')
      (lines_of (List.init n mixed_request));
    flush oc;
    (* wait until the fleet is demonstrably mid-stream, then interrupt *)
    let first =
      match input_line ic with
      | l -> l
      | exception End_of_file -> Alcotest.fail "fleet produced no output"
    in
    Unix.kill pid Sys.sigterm;
    let rest = ref [] in
    (try
       while true do
         rest := input_line ic :: !rest
       done
     with End_of_file -> ());
    close_out_noerr oc;
    close_in_noerr ic;
    let _, status = Unix.waitpid [] pid in
    Alcotest.(check bool) "fleet exited cleanly after SIGTERM" true
      (status = Unix.WEXITED 0);
    (* the drain guarantee: whatever was written is complete NDJSON —
       every line parses; nothing is torn mid-record *)
    List.iter
      (fun line ->
        if Json.parse_opt line = None then
          Alcotest.failf "torn/garbled response line after SIGTERM: %s" line)
      (first :: List.rev !rest)
  end

let test_sigterm_drain_parked_midline () =
  if not (have_cli ()) then Alcotest.skip ()
  else begin
    (* the hard drain case: window=1 keeps the park queues non-empty
       when the signal lands, and an unterminated trailing line leaves
       the client mid-NDJSON-record. The drain must still settle every
       admitted job, emit no torn line, conserve the terminal counters
       in its own metrics doc, and exit 0. *)
    let mfile = Filename.temp_file "sofia_fleet_mterm" ".json" in
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists mfile then Sys.remove mfile)
      (fun () ->
        let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
        let req_r, req_w = Unix.pipe ~cloexec:true () in
        let resp_r, resp_w = Unix.pipe ~cloexec:true () in
        let pid =
          Unix.create_process cli
            [| cli; "fleet"; "--stdin"; "--children"; "2"; "--window"; "1";
               "--json"; mfile |]
            req_r resp_w null
        in
        Unix.close null;
        Unix.close req_r;
        Unix.close resp_w;
        let oc = Unix.out_channel_of_descr req_w in
        let ic = Unix.in_channel_of_descr resp_r in
        List.iter
          (fun l ->
            output_string oc l;
            output_char oc '\n')
          (lines_of (List.init 20 mixed_request));
        output_string oc "{\"id\":\"torn\",\"op\":\"prot";
        flush oc;
        let first =
          match input_line ic with
          | l -> l
          | exception End_of_file -> Alcotest.fail "fleet produced no output"
        in
        Unix.kill pid Sys.sigterm;
        let rest = ref [] in
        (try
           while true do
             rest := input_line ic :: !rest
           done
         with End_of_file -> ());
        close_out_noerr oc;
        close_in_noerr ic;
        let _, status = Unix.waitpid [] pid in
        Alcotest.(check bool) "fleet exited 0 after mid-line SIGTERM" true
          (status = Unix.WEXITED 0);
        List.iter
          (fun line ->
            if Json.parse_opt line = None then
              Alcotest.failf "torn/garbled response line after SIGTERM: %s" line)
          (first :: List.rev !rest);
        let mic = open_in_bin mfile in
        let raw = really_input_string mic (in_channel_length mic) in
        close_in_noerr mic;
        match Json.parse_opt raw with
        | None -> Alcotest.fail "fleet --json wrote an unparseable document"
        | Some doc ->
          let router =
            match Json.member "router" doc with
            | Some r -> r
            | None -> Alcotest.fail "metrics doc lacks a router section"
          in
          let geti k =
            match Json.member k router with Some (Json.Int n) -> n | _ -> -1
          in
          Alcotest.(check bool) "interrupted flagged" true
            (Json.member "interrupted" router = Some (Json.Bool true));
          Alcotest.(check int) "submitted = done+rejected+timed_out+failed"
            (geti "submitted")
            (geti "done" + geti "rejected" + geti "timed_out" + geti "failed"))
  end

(* ---- the replay tables are bounded ---- *)

let test_replay_tables_bounded () =
  if not (have_cli ()) then Alcotest.skip ()
  else begin
    (* cap + k distinct protect keys through a real fleet, in batches
       that wait for their answers so recency is fixed: key 1 is sent
       again at the head of every batch and must stay replayable (a memo
       hit each time after its first), while key 0, never touched again,
       must be evicted from both tables and routed to a child again,
       answering with the same payload *)
    let cap = FR.replay_cap and k = 8 and batch = 128 in
    let key i ~id =
      Job.make ~id ~key_seed:(Int64.of_int (0x5000 + i)) (Job.Protect { source = sources.(0) })
    in
    let mfile = Filename.temp_file "sofia_fleet_bounded" ".json" in
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists mfile then Sys.remove mfile)
      (fun () ->
        let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
        let req_r, req_w = Unix.pipe ~cloexec:true () in
        let resp_r, resp_w = Unix.pipe ~cloexec:true () in
        let pid =
          Unix.create_process cli
            [| cli; "fleet"; "--stdin"; "--children"; "3"; "--json"; mfile |]
            req_r resp_w null
        in
        Unix.close null;
        Unix.close req_r;
        Unix.close resp_w;
        let oc = Unix.out_channel_of_descr req_w in
        let ic = Unix.in_channel_of_descr resp_r in
        (* send [jobs], then read one answer per job *)
        let round jobs =
          List.iter
            (fun l ->
              output_string oc l;
              output_char oc '\n')
            (lines_of jobs);
          flush oc;
          let rs =
            List.map
              (fun _ ->
                match Json.parse_opt (input_line ic) with
                | Some j -> j
                | None -> Alcotest.fail "fleet emitted a non-JSON line"
                | exception End_of_file -> Alcotest.fail "fleet closed its output early")
              jobs
          in
          List.iter (fun j -> Alcotest.(check string) "status" "done" (r_status j)) rs;
          rs
        in
        let attempts j =
          match Json.member "attempts" j with Some (Json.Int n) -> n | _ -> -1
        in
        let first = List.hd (round [ key 0 ~id:"first" ]) in
        let fillers = cap + k - 2 in
        let rec batches b next =
          if next < 2 + fillers then begin
            let last = min (2 + fillers) (next + batch) in
            ignore
              (round
                 (key 1 ~id:(Printf.sprintf "reuse-%d" b)
                 :: List.init (last - next) (fun i ->
                        key (next + i) ~id:(Printf.sprintf "fill-%d" (next + i)))));
            batches (b + 1) last
          end
          else b
        in
        let reuses = batches 0 2 in
        let reused = List.hd (round [ key 1 ~id:"reuse-last" ]) in
        Alcotest.(check int) "the re-used key is replayed" 0 (attempts reused);
        let again = List.hd (round [ key 0 ~id:"first-again" ]) in
        Alcotest.(check int) "the evicted key reached a child again" 1 (attempts again);
        Alcotest.(check string) "same payload after eviction" (payload_fingerprint first)
          (payload_fingerprint again);
        close_out_noerr oc;
        (try
           while true do
             ignore (input_line ic)
           done
         with End_of_file -> ());
        close_in_noerr ic;
        let _, status = Unix.waitpid [] pid in
        Alcotest.(check bool) "fleet exited 0" true (status = Unix.WEXITED 0);
        let mic = open_in_bin mfile in
        let raw = really_input_string mic (in_channel_length mic) in
        close_in_noerr mic;
        let doc =
          match Json.parse_opt raw with
          | Some d -> d
          | None -> Alcotest.fail "fleet --json wrote an unparseable document"
        in
        let router k =
          match Option.bind (Json.member "router" doc) (Json.member k) with
          | Some (Json.Int n) -> n
          | _ -> Alcotest.failf "router.%s missing" k
        in
        Alcotest.(check bool) "replay_entries <= cap" true (router "replay_entries" <= cap);
        Alcotest.(check bool) "replay_evictions >= k" true (router "replay_evictions" >= k);
        Alcotest.(check int) "memo_hits: key 1 after its first line" reuses (router "memo_hits");
        Alcotest.(check bool) "memo_evictions >= k" true (router "memo_evictions" >= k);
        let routed =
          match Json.member "shards" doc with
          | Some (Json.List shards) ->
            List.fold_left
              (fun a s -> match Json.member "routed" s with Some (Json.Int n) -> a + n | _ -> a)
              0 shards
          | _ -> Alcotest.fail "metrics doc lacks shards"
        in
        Alcotest.(check int) "each key routed once, the evicted one twice" (cap + k + 1) routed)
  end

(* ---- the child-engine fix the fleet motivated ---- *)

let test_raising_callback_never_loses_a_settle () =
  (* The fleet router can close a child's client socket while workers
     still hold jobs; nothing guarantees the on_response callback never
     raises in that state. The engine must contain it: every job still
     settles exactly once, terminal counters conserve, and the worker
     pool survives to drain the rest. A streaming engine keeps no
     response log, so the callback itself is the record: every id must
     reach it exactly once, done. *)
  let n = 20 in
  let mu = Mutex.create () in
  let calls = ref 0 in
  let seen = Hashtbl.create n in
  let eng =
    Engine.create
      ~on_response:(fun (r : Job.response) ->
        Mutex.lock mu;
        incr calls;
        let raise_now = !calls mod 2 = 0 in
        Hashtbl.replace seen r.Job.id
          (r.Job.status :: Option.value ~default:[] (Hashtbl.find_opt seen r.Job.id));
        Mutex.unlock mu;
        if raise_now then failwith "client is gone")
      { Engine.default_config with Engine.workers = 2 }
  in
  Engine.start eng;
  let reqs = List.init n mixed_request in
  List.iter (Engine.submit eng) reqs;
  Alcotest.(check int) "a streaming engine keeps no log" 0 (List.length (Engine.drain eng));
  Engine.shutdown eng;
  let m = Engine.metrics eng in
  Alcotest.(check int) "terminal counters conserve" n
    (Sofia.Service.Svc_metrics.terminal_sum m);
  Alcotest.(check int) "callback ran once per response" n !calls;
  Alcotest.(check bool) "raises were accounted as service errors" true
    (m.Sofia.Service.Svc_metrics.service_errors >= n / 2);
  List.iter
    (fun (req : Job.request) ->
      match Hashtbl.find_opt seen req.Job.id with
      | Some [ Job.Done _ ] -> ()
      | Some [ _ ] -> Alcotest.failf "%s did not complete" req.Job.id
      | Some l -> Alcotest.failf "%s reached the callback %d times" req.Job.id (List.length l)
      | None -> Alcotest.failf "%s never reached the callback" req.Job.id)
    reqs

let suite =
  [
    QCheck_alcotest.to_alcotest prop_route_deterministic;
    QCheck_alcotest.to_alcotest prop_route_op_affinity;
    QCheck_alcotest.to_alcotest prop_backend_in_shard_keys;
    Alcotest.test_case "route covers every shard" `Quick test_route_coverage;
    Alcotest.test_case "content key vs route key" `Quick test_content_key_vs_route_key;
    Alcotest.test_case "3-child mix matches one-shot payloads" `Slow
      test_mix_matches_oneshot;
    Alcotest.test_case "replay cache is byte-identical" `Slow test_replay_byte_identical;
    Alcotest.test_case "warm pass routes nothing" `Slow test_warm_pass_routes_nothing;
    Alcotest.test_case "child kill -9: zero lost, zero duplicated" `Slow
      test_child_kill_exactly_once;
    Alcotest.test_case "breaker quarantine + re-shed" `Slow
      test_breaker_quarantine_and_reshed;
    Alcotest.test_case "malformed lines die at the router" `Slow test_malformed_at_router;
    Alcotest.test_case "a long failure is one line, no death" `Slow
      test_long_failure_fits_the_cap;
    Alcotest.test_case "ping round-trip, never replayed" `Slow test_ping_round_trip;
    Alcotest.test_case "window=1 backpressure conserves" `Slow test_window_one_conservation;
    Alcotest.test_case "child that cannot start fails the fleet" `Slow
      test_child_fails_at_start;
    Alcotest.test_case "replay cache survives a router restart" `Slow
      test_replay_survives_restart;
    Alcotest.test_case "SIGTERM drain: no torn NDJSON" `Slow
      test_sigterm_drain_no_torn_output;
    Alcotest.test_case "SIGTERM drain: parked queues, mid-line client" `Slow
      test_sigterm_drain_parked_midline;
    Alcotest.test_case "raising response callback loses nothing" `Quick
      test_raising_callback_never_loses_a_settle;
    Alcotest.test_case "replay tables stay bounded" `Slow test_replay_tables_bounded;
    Alcotest.test_case "per-shard clock skew: nothing times out" `Slow test_clock_skew;
    Alcotest.test_case "digest liar quarantined by the audit vote" `Slow
      test_digest_quarantine;
    Alcotest.test_case "poisoned shard store: same digests" `Slow test_store_poison;
    Alcotest.test_case "four-client flood: once each, deduplicated" `Slow test_client_flood;
    Alcotest.test_case "slow-loris client dropped, healthy one served" `Slow test_slow_loris;
  ]
