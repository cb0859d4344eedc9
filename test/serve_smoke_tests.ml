(* End-to-end smoke test of the serving pipeline: a 200-request mixed
   batch pushed through a real [sofia_cli serve --stdin --workers 4]
   child process. Every request id must be answered exactly once, [seq]
   must equal the submission order, and the [completion] indices must be
   a permutation of 0..n-1 — the "no request silently dropped"
   guarantee, exercised over the actual wire. *)

module Job = Sofia.Service.Job
module Json = Sofia.Obs.Json

let cli = "../bin/sofia_cli.exe"

let sources =
  [|
    ".equ OUT, 0xFFFF0000\nmain:\n  addi t0, zero, 1\n  la a6, OUT\n  st t0, 0(a6)\n  halt\n";
    ".equ OUT, 0xFFFF0000\nmain:\n  addi t0, zero, 2\n  la a6, OUT\n  st t0, 0(a6)\n  halt\n";
    "start:\n  mv a0, a1\n  j target\ntarget:\n  mv a1, a2\n  halt\n";
    "start:\n  call f\n  call f\n  halt\nf:\n  addi a0, a0, 1\n  ret\n";
  |]

let request i =
  let source = sources.(i mod Array.length sources) in
  let id = Printf.sprintf "req-%03d" i in
  match i mod 4 with
  | 0 -> Job.make ~id (Job.Protect { source })
  | 1 -> Job.make ~id (Job.Verify { source })
  | 2 -> Job.make ~id (Job.Attest { source })
  | _ -> Job.make ~id (Job.Simulate { source; sofia = true })

let test_pipe_mode_200 () =
  if not (Sys.file_exists cli) then
    Alcotest.skip ()
  else begin
    let n = 200 in
    let req_path = Filename.temp_file "sofia_smoke" ".ndjson" in
    let oc = open_out req_path in
    for i = 0 to n - 1 do
      output_string oc (Json.to_string (Job.request_to_json (request i)));
      output_char oc '\n'
    done;
    close_out oc;
    let cmd =
      Printf.sprintf "%s serve --stdin --workers 4 < %s 2>/dev/null" (Filename.quote cli)
        (Filename.quote req_path)
    in
    let ic = Unix.open_process_in cmd in
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> ());
    let status = Unix.close_process_in ic in
    Sys.remove req_path;
    Alcotest.(check bool) "server exited cleanly" true (status = Unix.WEXITED 0);
    let lines = List.rev !lines in
    Alcotest.(check int) "one response per request" n (List.length lines);
    let parse line =
      match Json.parse_opt line with
      | None -> Alcotest.failf "response is not JSON: %s" line
      | Some j ->
        let str name =
          match Json.member name j with
          | Some (Json.Str s) -> s
          | _ -> Alcotest.failf "response lacks %S: %s" name line
        in
        let int name =
          match Json.member name j with
          | Some (Json.Int v) -> v
          | _ -> Alcotest.failf "response lacks %S: %s" name line
        in
        (str "id", str "status", int "seq", int "completion")
    in
    let parsed = List.map parse lines in
    (* every id answered exactly once *)
    let seen = Hashtbl.create n in
    List.iter
      (fun (id, _, _, _) ->
        if Hashtbl.mem seen id then Alcotest.failf "id %s answered twice" id;
        Hashtbl.add seen id ())
      parsed;
    for i = 0 to n - 1 do
      let id = Printf.sprintf "req-%03d" i in
      if not (Hashtbl.mem seen id) then Alcotest.failf "id %s never answered" id
    done;
    (* all terminal states are done; seq matches the submission index *)
    List.iter
      (fun (id, status, seq, _) ->
        Alcotest.(check string) (id ^ " status") "done" status;
        Alcotest.(check int) (id ^ " seq") (int_of_string (String.sub id 4 3)) seq)
      parsed;
    (* completion order is a permutation of 0..n-1 *)
    let completions = List.map (fun (_, _, _, c) -> c) parsed in
    let sorted = List.sort compare completions in
    Alcotest.(check bool) "completion is a permutation" true
      (sorted = List.init n (fun i -> i))
  end

(* the op payload fields that must be equal across transports and
   across processes (the scheduling metadata — seq/completion/
   latency/ts — legitimately differs) *)
let payload_keys = function
  | Job.Protect _ -> [ "digest"; "text_bytes"; "blocks"; "status" ]
  | Job.Verify _ -> [ "ok"; "issues"; "status" ]
  | Job.Attest _ -> [ "digest"; "mac"; "ok"; "status" ]
  | Job.Simulate _ -> [ "outcome"; "outputs"; "cycles"; "instructions"; "status" ]
  | Job.Run_image _ -> [ "outcome"; "status" ]
  | Job.Ping -> [ "shard"; "workers"; "status" ]

(* scheduling metadata legitimately differs across processes and
   transports; everything else in a response must match byte for byte *)
let volatile = [ "seq"; "completion"; "attempts"; "worker"; "latency_ms"; "ts_unix"; "cached" ]

(* (id, the response minus [volatile]) of one response line, which
   must be a done response *)
let stripped line =
  match Json.parse_opt line with
  | Some (Json.Obj fields) ->
    let id =
      match List.assoc_opt "id" fields with
      | Some (Json.Str s) -> s
      | _ -> Alcotest.failf "response lacks id: %s" line
    in
    if List.assoc_opt "status" fields <> Some (Json.Str "done") then
      Alcotest.failf "%s: not done: %s" id line;
    (id, Json.to_string (Json.Obj (List.filter (fun (k, _) -> not (List.mem k volatile)) fields)))
  | _ -> Alcotest.failf "response is not a JSON object: %s" line

let write_requests oc reqs =
  List.iter
    (fun r ->
      output_string oc (Json.to_string (Job.request_to_json r));
      output_char oc '\n')
    reqs

(* [reqs] as an NDJSON file for the duration of [f] *)
let with_requests reqs f =
  let path = Filename.temp_file "sofia_smoke" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> write_requests oc reqs);
      f path)

(* stdout lines of [sofia_cli args < path], which must exit 0 *)
let cli_lines args path =
  let cmd =
    Printf.sprintf "%s %s < %s 2>/dev/null" (Filename.quote cli)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote path)
  in
  let ic = Unix.open_process_in cmd in
  let lines = In_channel.input_lines ic in
  if Unix.close_process_in ic <> Unix.WEXITED 0 then
    Alcotest.failf "sofia_cli %s did not exit cleanly" (String.concat " " args);
  lines

(* ---- socket mode ---- *)

let wait_for pred =
  let deadline = Sofia.Util.Clock.mono_s () +. 10.0 in
  let rec loop () =
    if pred () then true
    else if Sofia.Util.Clock.mono_s () > deadline then false
    else begin
      Unix.sleepf 0.02;
      loop ()
    end
  in
  loop ()

let start_socket_server path =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--socket"; path; "--once"; "--workers"; "2" |]
      Unix.stdin Unix.stdout null
  in
  Unix.close null;
  if not (wait_for (fun () -> Sys.file_exists path)) then
    Alcotest.failf "server never bound %s" path;
  pid

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let reap pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> code
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> Alcotest.failf "server killed by signal %d" s

(* The socket transport must deliver exactly what pipe mode and the
   one-shot executor deliver: 50 mixed jobs over a real AF_UNIX
   connection, every payload field equal to Engine.execute_oneshot's
   answer for the same request, then a clean shutdown that removes the
   socket file. *)
let test_socket_mode_50 () =
  if not (Sys.file_exists cli) then Alcotest.skip ()
  else begin
    let path = Filename.temp_file "sofia_sock" ".sock" in
    Sys.remove path;
    let pid = start_socket_server path in
    let fd = connect path in
    let n = 50 in
    let oc = Unix.out_channel_of_descr fd in
    for i = 0 to n - 1 do
      output_string oc (Json.to_string (Job.request_to_json (request i)));
      output_char oc '\n'
    done;
    flush oc;
    Unix.shutdown fd Unix.SHUTDOWN_SEND;
    let ic = Unix.in_channel_of_descr fd in
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> ());
    Unix.close fd;
    let code = reap pid in
    Alcotest.(check int) "server exit code" 0 code;
    Alcotest.(check bool) "socket file removed" false (Sys.file_exists path);
    let lines = List.rev !lines in
    Alcotest.(check int) "one response per request" n (List.length lines);
    (* byte-level equivalence with the sequential one-shot executor *)
    List.iter
      (fun line ->
        let j =
          match Json.parse_opt line with
          | Some j -> j
          | None -> Alcotest.failf "response is not JSON: %s" line
        in
        let id =
          match Json.member "id" j with
          | Some (Json.Str s) -> s
          | _ -> Alcotest.failf "response lacks id: %s" line
        in
        let i = int_of_string (String.sub id 4 3) in
        let req = request i in
        let oneshot =
          { Job.id; op = Job.op_name req.Job.spec; status = Sofia.Service.Engine.execute_oneshot req;
            seq = 0; completion = 0; attempts = 1; worker = 0; latency_ms = 0.0; ts = 0.0 }
        in
        let expected = Job.response_to_json oneshot in
        List.iter
          (fun key ->
            let pick doc = Json.member key doc in
            if pick j <> pick expected then
              Alcotest.failf "%s: field %S differs from one-shot (%s)" id key line)
          (payload_keys req.Job.spec))
      lines
  end

(* A client that vanishes mid-stream must not crash the server or leave
   jobs unsettled: the connection's jobs all reach a terminal state and
   the server exits cleanly. *)
let test_socket_client_disconnect () =
  if not (Sys.file_exists cli) then Alcotest.skip ()
  else begin
    let path = Filename.temp_file "sofia_sock" ".sock" in
    Sys.remove path;
    let pid = start_socket_server path in
    let fd = connect path in
    let oc = Unix.out_channel_of_descr fd in
    for i = 0 to 19 do
      output_string oc (Json.to_string (Job.request_to_json (request i)));
      output_char oc '\n'
    done;
    flush oc;
    (* read a single response to be sure the engine is mid-stream, then
       slam the connection shut without consuming the rest *)
    let ic = Unix.in_channel_of_descr fd in
    (match input_line ic with
     | line -> Alcotest.(check bool) "first response is JSON" true (Json.parse_opt line <> None)
     | exception End_of_file -> Alcotest.fail "no response before disconnect");
    Unix.close fd;
    let code = reap pid in
    Alcotest.(check int) "server survives the disconnect" 0 code;
    Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)
  end

(* ---- cross-process warm restart over the persistent store ---- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let json_file path =
  match Json.parse_opt (In_channel.with_open_bin path In_channel.input_all) with
  | Some j -> j
  | None -> Alcotest.failf "%s is not JSON" path

let counter doc path =
  match List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some doc) path with
  | Some (Json.Int v) -> v
  | _ -> Alcotest.failf "metrics lack %s" (String.concat "." path)

(* The same job mix through two *separate* [sofia_cli args DIR --json
   M] processes sharing one persistent DIR: run 2 must answer every
   request with run 1's payload (the persistent tier re-verifies
   everything it serves), and [check_warm] holds run 2's metrics
   document to a real warm start, not a silent recompute. *)
let warm_restart args check_warm =
  if not (Sys.file_exists cli) then Alcotest.skip ()
  else begin
    let n = 40 in
    let dir = Filename.temp_file "sofia_warm_dir" "" in
    Sys.remove dir;
    let metrics1 = Filename.temp_file "sofia_warm_m1" ".json" in
    let metrics2 = Filename.temp_file "sofia_warm_m2" ".json" in
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ metrics1; metrics2 ];
        if Sys.file_exists dir then rm_rf dir)
      (fun () ->
        with_requests (List.init n request) (fun req_path ->
            let run_once metrics = cli_lines (args @ [ dir; "--json"; metrics ]) req_path in
            let cold = run_once metrics1 in
            let warm = run_once metrics2 in
            Alcotest.(check int) "cold answered all" n (List.length cold);
            Alcotest.(check int) "warm answered all" n (List.length warm);
            let by_id = Hashtbl.create n in
            List.iter
              (fun line ->
                let id, fields = stripped line in
                Hashtbl.replace by_id id fields)
              cold;
            List.iter
              (fun line ->
                let id, fields = stripped line in
                match Hashtbl.find_opt by_id id with
                | None -> Alcotest.failf "warm run answered unknown id %s" id
                | Some cold_fields ->
                  if fields <> cold_fields then
                    Alcotest.failf "%s: warm payload differs from cold run" id)
              warm);
        check_warm (json_file metrics2))
  end

(* serve over --store-dir: the warm process serves from disk and
   re-protects none of the mix *)
let test_warm_restart_across_processes () =
  warm_restart [ "serve"; "--stdin"; "--workers"; "2"; "--store-dir" ] (fun doc ->
      Alcotest.(check bool) "warm run hit the disk store" true (counter doc [ "disk"; "hits" ] > 0);
      Alcotest.(check int) "no corrupt entries" 0 (counter doc [ "disk"; "corrupt" ]);
      Alcotest.(check int) "no disk misses" 0 (counter doc [ "disk"; "misses" ]);
      Alcotest.(check int) "no disk writes" 0 (counter doc [ "disk"; "writes" ]))

(* fleet over --replay-dir: the restarted router answers the mix from
   its persistent replay tier without dispatching a job to a child *)
let test_fleet_warm_restart_across_processes () =
  warm_restart [ "fleet"; "--stdin"; "--children"; "2"; "--replay-dir" ] (fun doc ->
      Alcotest.(check bool) "warm router replayed from disk" true
        (counter doc [ "router"; "disk_replays" ] > 0);
      Alcotest.(check int) "no corrupt reloads" 0 (counter doc [ "replay_store"; "corrupt" ]);
      let routed =
        match Json.member "shards" doc with
        | Some (Json.List shards) ->
          List.fold_left (fun acc sh -> acc + counter sh [ "routed" ]) 0 shards
        | _ -> Alcotest.fail "fleet metrics lack shards"
      in
      Alcotest.(check int) "warm run dispatched nothing to a child" 0 routed)

(* ---- fleet smoke: the full mix through a real 3-child fleet ---- *)

(* [reqs] through a single-process [serve --stdin]: id -> stripped
   response, the reference a fleet must reproduce *)
let serve_reference reqs =
  let reference = Hashtbl.create 64 in
  List.iter
    (fun line ->
      let id, fields = stripped line in
      Hashtbl.replace reference id fields)
    (with_requests reqs (cli_lines [ "serve"; "--stdin"; "--workers"; "2" ]));
  Alcotest.(check int) "serve answered all" (List.length reqs) (Hashtbl.length reference);
  reference

(* 200 mixed jobs through [sofia_cli fleet --children 3], with one
   child kill -9'd mid-mix (pid scraped from the router's stderr
   lifecycle lines): every payload must be byte-identical to what a
   single-process [serve] answers for the same request, every id
   answered exactly once, and the fleet must still exit 0 — the
   supervised-redispatch guarantee over the real wire. *)
let test_fleet_mix_kill9_vs_serve () =
  if not (Sys.file_exists cli) then Alcotest.skip ()
  else begin
    let n = 200 in
    let reqs = List.init n request in
    let reference = serve_reference reqs in
    let err_path = Filename.temp_file "sofia_fleet_smoke" ".stderr" in
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists err_path then Sys.remove err_path)
      (fun () ->
        (* the fleet, interactively, so we can kill a child mid-mix *)
        let err_fd =
          Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
        in
        let req_r, req_w = Unix.pipe ~cloexec:true () in
        let resp_r, resp_w = Unix.pipe ~cloexec:true () in
        let pid =
          Unix.create_process cli
            [| cli; "fleet"; "--stdin"; "--children"; "3" |]
            req_r resp_w err_fd
        in
        Unix.close err_fd;
        Unix.close req_r;
        Unix.close resp_w;
        let foc = Unix.out_channel_of_descr req_w in
        let fic = Unix.in_channel_of_descr resp_r in
        let send r =
          output_string foc (Json.to_string (Job.request_to_json r));
          output_char foc '\n'
        in
        let first, rest =
          let rec split k acc = function
            | l when k = 0 -> (List.rev acc, l)
            | x :: tl -> split (k - 1) (x :: acc) tl
            | [] -> (List.rev acc, [])
          in
          split (n / 2) [] reqs
        in
        List.iter send first;
        flush foc;
        (* wait for proof the fleet is mid-stream, then murder a child *)
        let early =
          match input_line fic with
          | l -> l
          | exception End_of_file -> Alcotest.fail "fleet produced no output"
        in
        let child_pids =
          let ic = open_in err_path in
          let pids = ref [] in
          (try
             while true do
               let line = input_line ic in
               (* sscanf raises End_of_file on a too-short line — keep
                  it distinct from the channel's own End_of_file *)
               try
                 Scanf.sscanf line "fleet: shard %d up (pid %d)" (fun _ p ->
                     pids := p :: !pids)
               with Scanf.Scan_failure _ | End_of_file | Failure _ -> ()
             done
           with End_of_file -> ());
          close_in ic;
          !pids
        in
        if child_pids = [] then Alcotest.fail "no child pids on fleet stderr";
        Unix.kill (List.hd child_pids) Sys.sigkill;
        List.iter send rest;
        close_out foc;
        let fleet_lines = ref [ early ] in
        (try
           while true do
             fleet_lines := input_line fic :: !fleet_lines
           done
         with End_of_file -> ());
        close_in_noerr fic;
        let _, status = Unix.waitpid [] pid in
        Alcotest.(check bool) "fleet exited 0 despite the kill" true
          (status = Unix.WEXITED 0);
        Alcotest.(check int) "fleet answered all" n (List.length !fleet_lines);
        let seen = Hashtbl.create n in
        List.iter
          (fun line ->
            let id, fields = stripped line in
            if Hashtbl.mem seen id then Alcotest.failf "fleet answered %s twice" id;
            Hashtbl.add seen id ();
            match Hashtbl.find_opt reference id with
            | None -> Alcotest.failf "fleet answered unknown id %s" id
            | Some ref_fields ->
              if fields <> ref_fields then
                Alcotest.failf "%s: fleet payload differs from single serve" id)
          !fleet_lines)
  end

(* ---- the CLI's TCP fleet ---- *)

(* the pid of each [fleet: shard K up (pid P)] line of a fleet's
   stderr, in order *)
let shard_pids err_path =
  List.filter_map
    (fun line -> Scanf.sscanf_opt line "fleet: shard %d up (pid %d)%!" (fun _ p -> p))
    (In_channel.with_open_bin err_path In_channel.input_lines)

(* [sofia_cli fleet --tcp 127.0.0.1:0 --accepts 2]: the router binds an
   ephemeral port, names it on stderr, serves two concurrent clients
   from one select loop and exits 0 after the second (the fleet binary
   exits 0 only when its counters conserve). Each client must get every
   id once, each payload equal to single-process [serve]'s. Every
   router fd is close-on-exec, so each shard child holds exactly its
   stdin, stdout and stderr — not the listener, not a sibling's pipe. *)
let test_fleet_tcp_two_clients () =
  if not (Sys.file_exists cli) then Alcotest.skip ()
  else begin
    let reqs = List.init 40 request in
    let reference = serve_reference reqs in
    let err_path = Filename.temp_file "sofia_fleet_tcp" ".stderr" in
    let err_fd = Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
    let pid =
      Unix.create_process cli
        [| cli; "fleet"; "--tcp"; "127.0.0.1:0"; "--accepts"; "2"; "--children"; "3" |]
        Unix.stdin Unix.stdout err_fd
    in
    Unix.close err_fd;
    Fun.protect
      ~finally:(fun () ->
        (* a router that never finishes is killed, not leaked *)
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
         | 0, _ ->
           Unix.kill pid Sys.sigkill;
           ignore (Unix.waitpid [] pid)
         | _ -> ()
         | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ());
        Sys.remove err_path)
      (fun () ->
        let port = ref None in
        let listening () =
          List.iter
            (fun line ->
              match Scanf.sscanf_opt line "fleet: listening on 127.0.0.1:%d%!" Fun.id with
              | Some p -> port := Some p
              | None -> ())
            (In_channel.with_open_bin err_path In_channel.input_lines);
          !port <> None
        in
        if not (wait_for listening) then Alcotest.fail "fleet never reported its TCP port";
        if not (wait_for (fun () -> List.length (shard_pids err_path) = 3)) then
          Alcotest.fail "the three shards never came up";
        if Sys.file_exists "/proc/self/fd" then
          List.iter
            (fun child ->
              let fds = Sys.readdir (Printf.sprintf "/proc/%d/fd" child) in
              Array.sort compare fds;
              Alcotest.(check (array string))
                (Printf.sprintf "shard child %d holds only fds 0, 1 and 2" child)
                [| "0"; "1"; "2" |] fds)
            (shard_pids err_path);
        let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, Option.get !port) in
        let client () =
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          (* a wedged router fails the test instead of hanging it *)
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
          Unix.connect fd addr;
          let oc = Unix.out_channel_of_descr fd in
          write_requests oc reqs;
          flush oc;
          Unix.shutdown fd Unix.SHUTDOWN_SEND;
          let ic = Unix.in_channel_of_descr fd in
          let lines = In_channel.input_lines ic in
          close_in_noerr ic;
          lines
        in
        let d1 = Domain.spawn client in
        let d2 = Domain.spawn client in
        let answers = [ Domain.join d1; Domain.join d2 ] in
        let status = ref None in
        let exited () =
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> false
          | _, st ->
            status := Some st;
            true
        in
        if not (wait_for exited) then Alcotest.fail "fleet still running after two accepts";
        Alcotest.(check bool) "fleet exited 0" true (!status = Some (Unix.WEXITED 0));
        List.iteri
          (fun i lines ->
            Alcotest.(check int) (Printf.sprintf "client %d answered all" i)
              (List.length reqs) (List.length lines);
            let seen = Hashtbl.create 64 in
            List.iter
              (fun line ->
                let id, fields = stripped line in
                if Hashtbl.mem seen id then Alcotest.failf "client %d got %s twice" i id;
                Hashtbl.add seen id ();
                if Hashtbl.find_opt reference id <> Some fields then
                  Alcotest.failf "client %d, %s: payload differs from single serve" i id)
              lines)
          answers)
  end

(* ---- a stopped child never blocks the router ---- *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n > 0 && go 0

(* A fleet with one shard child, stopped with SIGSTOP, is sent 40
   protect jobs of ~25 KB each under distinct key seeds, so no replay
   or coalescing answers one: the window routed to the stopped child
   is far more than a pipe or socket buffer holds. The router must keep
   running its loop, so the hang watchdog kills the child, a restart
   answers every job once, and the fleet exits 0. Every read and write
   here waits in [select] under one deadline: a router wedged in a
   write to its child fails this test instead of hanging the suite. *)
let test_fleet_stopped_child () =
  if not (Sys.file_exists cli) then Alcotest.skip ()
  else begin
    let n = 40 in
    let source =
      "main:\n"
      ^ String.concat "" (List.init 1400 (fun i -> Printf.sprintf "  addi t0, t0, %d\n" (i mod 100)))
      ^ "  halt\n"
    in
    let reqs =
      List.init n (fun i ->
          Job.make ~id:(Printf.sprintf "big-%02d" i) ~key_seed:(Int64.of_int (0x1000 + i))
            (Job.Protect { source }))
    in
    let input =
      String.concat "" (List.map (fun r -> Json.to_string (Job.request_to_json r) ^ "\n") reqs)
    in
    let err_path = Filename.temp_file "sofia_fleet_stop" ".stderr" in
    let err_fd = Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
    let req_r, req_w = Unix.pipe ~cloexec:true () in
    let resp_r, resp_w = Unix.pipe ~cloexec:true () in
    let pid =
      Unix.create_process cli [| cli; "fleet"; "--stdin"; "--children"; "1" |] req_r resp_w err_fd
    in
    List.iter Unix.close [ err_fd; req_r; resp_w ];
    let req_open = ref true and stopped = ref [] in
    let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
    Fun.protect
      ~finally:(fun () ->
        (* a wedged router and its stopped child are killed, not leaked *)
        List.iter (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ()) !stopped;
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
         | 0, _ ->
           Unix.kill pid Sys.sigkill;
           ignore (Unix.waitpid [] pid)
         | _ -> ()
         | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ());
        if !req_open then Unix.close req_w;
        Unix.close resp_r;
        Sys.set_signal Sys.sigpipe sigpipe;
        Sys.remove err_path)
      (fun () ->
        if not (wait_for (fun () -> shard_pids err_path <> [])) then
          Alcotest.fail "shard 0 never came up";
        let child = List.hd (shard_pids err_path) in
        Unix.kill child Sys.sigstop;
        stopped := [ child ];
        Unix.set_nonblock req_w;
        let deadline = Sofia.Util.Clock.mono_s () +. 30.0 in
        let sent = ref 0 and eof = ref false in
        let out = Buffer.create 4096 and chunk = Bytes.create 65536 in
        while (not !eof) && Sofia.Util.Clock.mono_s () < deadline do
          let readable, writable, _ =
            try Unix.select [ resp_r ] (if !req_open then [ req_w ] else []) [] 0.5
            with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
          in
          if writable <> [] then begin
            (match Unix.write_substring req_w input !sent (String.length input - !sent) with
             | k -> sent := !sent + k
             | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
            if !sent = String.length input then begin
              Unix.close req_w;
              req_open := false
            end
          end;
          if readable <> [] then
            match Unix.read resp_r chunk 0 (Bytes.length chunk) with
            | 0 -> eof := true
            | k -> Buffer.add_subbytes out chunk 0 k
        done;
        let lines = List.filter (( <> ) "") (String.split_on_char '\n' (Buffer.contents out)) in
        if not !eof then
          Alcotest.failf
            "fleet wedged behind a stopped child: it took %d of %d request bytes and \
             answered %d of %d jobs in 30 s"
            !sent (String.length input) (List.length lines) n;
        (* past EOF the router has finished: the child is killed and
           reaped, and its pid may already name another process *)
        stopped := [];
        let _, status = Unix.waitpid [] pid in
        let err = In_channel.with_open_bin err_path In_channel.input_all in
        Alcotest.(check bool) "the watchdog killed the stopped child" true
          (contains ~needle:"fleet: shard 0 down: watchdog: hang timeout" err);
        Alcotest.(check bool) "shard 0 restarted" true (List.length (shard_pids err_path) >= 2);
        Alcotest.(check bool) "fleet exited 0" true (status = Unix.WEXITED 0);
        Alcotest.(check int) "one answer per job" n (List.length lines);
        let seen = Hashtbl.create n in
        List.iter
          (fun line ->
            let id, _ = stripped line in
            if Hashtbl.mem seen id then Alcotest.failf "fleet answered %s twice" id;
            Hashtbl.add seen id ())
          lines)
  end

(* ---- unusable directories ---- *)

(* [sofia_cli args] fed [input]: its exit status and its stderr *)
let cli_run args input =
  let in_path = Filename.temp_file "sofia_smoke_in" ".ndjson" in
  let err_path = Filename.temp_file "sofia_smoke" ".stderr" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ in_path; err_path ])
    (fun () ->
      Out_channel.with_open_bin in_path (fun oc -> write_requests oc input);
      let fd_in = Unix.openfile in_path [ Unix.O_RDONLY ] 0 in
      let fd_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      let fd_err = Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
      let pid = Unix.create_process cli (Array.of_list (cli :: args)) fd_in fd_out fd_err in
      List.iter Unix.close [ fd_in; fd_out; fd_err ];
      let _, status = Unix.waitpid [] pid in
      (status, In_channel.with_open_bin err_path In_channel.input_all))

(* A --store-dir under a plain file is one [error:] line naming the path
   and the reason, and exit 1: from [serve], not an uncaught
   exception; from [fleet], before any child is spawned, not a child
   that dies on every job until the job is blamed for it. *)
let test_unusable_store_dir () =
  if not (Sys.file_exists cli) then Alcotest.skip ()
  else begin
    let file = Filename.temp_file "sofia_not_a_dir" "" in
    Fun.protect
      ~finally:(fun () -> Sys.remove file)
      (fun () ->
        List.iter
          (fun (what, args, dir) ->
            let status, err = cli_run (args @ [ "--store-dir"; dir ]) [ request 0 ] in
            Alcotest.(check bool) (what ^ " exits 1") true (status = Unix.WEXITED 1);
            let errors =
              List.filter (String.starts_with ~prefix:"error: ") (String.split_on_char '\n' err)
            in
            Alcotest.(check int) (what ^ ": one error line") 1 (List.length errors);
            Alcotest.(check bool)
              (what ^ " names the path and the reason: " ^ err)
              true
              (contains ~needle:dir (List.hd errors)
              && contains ~needle:"Not a directory" (List.hd errors));
            Alcotest.(check bool) (what ^ ": no uncaught exception") false
              (contains ~needle:"exception" err))
          [
            ("serve", [ "serve"; "--stdin" ], Filename.concat file "sub");
            ("fleet", [ "fleet"; "--stdin"; "--children"; "1" ], file);
          ])
  end

(* A reader that stops early: [serve --stdin | head -c 10]. The server
   must drop what it cannot write and exit as if every response had
   been read — no [Fatal error] from a flush at exit. *)
let test_stdout_closed_early () =
  if not (Sys.file_exists cli) then Alcotest.skip ()
  else begin
    let req_path = Filename.temp_file "sofia_head" ".ndjson" in
    let oc = open_out req_path in
    for i = 0 to 399 do
      let source = sources.(i mod Array.length sources) in
      let req = Job.make ~id:(Printf.sprintf "head-%03d" i) (Job.Protect { source }) in
      output_string oc (Json.to_string (Job.request_to_json req));
      output_char oc '\n'
    done;
    close_out oc;
    let err_path = Filename.temp_file "sofia_head" ".err" in
    let status_path = Filename.temp_file "sofia_head" ".status" in
    Fun.protect
      ~finally:(fun () -> List.iter Sys.remove [ req_path; err_path; status_path ])
      (fun () ->
        for run = 1 to 3 do
          let cmd =
            Printf.sprintf "{ %s serve --stdin < %s 2> %s; echo $? > %s; } | head -c 10 > /dev/null"
              (Filename.quote cli) (Filename.quote req_path) (Filename.quote err_path)
              (Filename.quote status_path)
          in
          ignore (Sys.command cmd);
          let err = In_channel.with_open_bin err_path In_channel.input_all in
          let status = String.trim (In_channel.with_open_bin status_path In_channel.input_all) in
          if contains ~needle:"Fatal error" err then
            Alcotest.failf "run %d: serve died on the closed pipe:\n%s" run err;
          Alcotest.(check string) (Printf.sprintf "run %d: exit status" run) "0" status
        done)
  end

let suite =
  [
    Alcotest.test_case "pipe mode, 200 mixed requests" `Slow test_pipe_mode_200;
    Alcotest.test_case "fleet mix + kill -9 vs single serve" `Slow
      test_fleet_mix_kill9_vs_serve;
    Alcotest.test_case "warm restart across processes" `Slow
      test_warm_restart_across_processes;
    Alcotest.test_case "socket mode, 50 mixed requests" `Slow test_socket_mode_50;
    Alcotest.test_case "socket client disconnect mid-stream" `Slow
      test_socket_client_disconnect;
    Alcotest.test_case "fleet --tcp: two concurrent clients" `Slow
      test_fleet_tcp_two_clients;
    Alcotest.test_case "fleet warm restart across processes" `Slow
      test_fleet_warm_restart_across_processes;
    Alcotest.test_case "fleet: a stopped child never blocks the router" `Slow
      test_fleet_stopped_child;
    Alcotest.test_case "unusable --store-dir: one error line" `Slow test_unusable_store_dir;
    Alcotest.test_case "stdout closed early: no fatal flush" `Slow test_stdout_closed_early;
  ]
