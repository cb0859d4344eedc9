(* The load generator: one serving process per run, one stdin/stdout
   pipe pair to it, the main thread sending and one domain reading.

   Open loop: request k is due at t0 + k/rate whatever the server does,
   and its latency runs from that due time, so a stall is charged to
   every request queued behind it. Closed loop: a fixed window of
   outstanding requests, refilled as answers come back.

   Neither side allocates per request while a phase runs: requests are
   rendered beforehand (see {!Traffic.tail}) and copied into one send
   buffer, and answers land in one growing byte arena. The generator's
   own collector pauses would otherwise stop the sender and show up as
   server latency. *)

let now = Sofia.Util.Clock.mono_s

type proc = {
  pid : int;
  to_srv : Unix.file_descr;
  from_srv : Unix.file_descr;
  err_path : string;
}

let rec write_all fd b off len =
  if len > 0 then begin
    let n = Unix.write fd b off len in
    write_all fd b (off + n) (len - n)
  end

let spawn ~argv ~env ~err_path =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let pid = Unix.create_process_env argv.(0) argv env in_r out_w err in
  List.iter Unix.close [ in_r; out_w; err ];
  { pid; to_srv = in_w; from_srv = out_r; err_path }

(* Read up to the first newline; false at end of file. *)
let read_line_fd fd =
  let b = Bytes.create 1 in
  let rec go () =
    match Unix.read fd b 0 1 with
    | 0 -> false
    | _ -> Bytes.get b 0 = '\n' || go ()
  in
  go ()

(* Spawn a server and wait for the answer to one ping: the set-up time
   is spawn to that answer. *)
let start ~argv ~env ~err_path =
  let t0 = now () in
  let p = spawn ~argv ~env ~err_path in
  let ping = Bytes.of_string "{\"id\":\"ping\",\"op\":\"ping\"}\n" in
  write_all p.to_srv ping 0 (Bytes.length ping);
  if read_line_fd p.from_srv then (p, now () -. t0)
  else failwith (Printf.sprintf "%s exited before answering a ping; see %s" argv.(1) err_path)

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _, st -> st
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

(* Close the server's input (EOF = graceful drain), discard what it
   still writes, and reap it. *)
let stop p =
  Unix.close p.to_srv;
  let b = Bytes.create 65536 in
  while Unix.read p.from_srv b 0 65536 > 0 do
    ()
  done;
  Unix.close p.from_srv;
  waitpid p.pid

(* ---- the response log --------------------------------------------- *)

type log = {
  cap : int;
  due : float array;  (** open-loop due time; nan for closed-loop requests *)
  sent : float array;
  recv : float array;  (** nan until answered *)
  off : int array;  (** answer [i] is [len.(i)] bytes of [arena] from [off.(i)] *)
  len : int array;
  mutable arena : Bytes.t;  (** reader only, until it is joined *)
  m : Mutex.t;
  c : Condition.t;
  mutable answered : int;  (** distinct requests answered; guarded by [m] *)
  mutable wake_at : int;  (** the reader signals once [answered] reaches it; guarded by [m] *)
  mutable eof : bool;  (** guarded by [m] *)
  mutable sent_n : int;  (** main thread only *)
  mutable out : Bytes.t;  (** main thread only: the next write *)
  mutable dups : int;  (** reader only; read after join *)
  mutable strays : int;  (** reader only; read after join *)
}

let create_log cap =
  {
    cap;
    due = Array.make cap Float.nan;
    sent = Array.make cap Float.nan;
    recv = Array.make cap Float.nan;
    off = Array.make cap 0;
    len = Array.make cap 0;
    arena = Bytes.create (1 lsl 20);
    m = Mutex.create ();
    c = Condition.create ();
    answered = 0;
    wake_at = 0;
    eof = false;
    sent_n = 0;
    out = Bytes.create (1 lsl 16);
    dups = 0;
    strays = 0;
  }

let answered log i = not (Float.is_nan log.recv.(i))

(* Answer [i] (after the reader has been joined). *)
let line log i = Bytes.sub_string log.arena log.off.(i) log.len.(i)

(* Whether answer [i] contains [sub], without copying it out. *)
let line_has log i sub =
  let b = log.arena and o = log.off.(i) and l = log.len.(i) and n = String.length sub in
  let rec at j k = k = n || (Bytes.get b (j + k) = String.unsafe_get sub k && at j (k + 1)) in
  let rec go j = j + n <= o + l && (at j 0 || go (j + 1)) in
  go o

let is_done log i = answered log i && line_has log i "\"status\":\"done\""

(* The request index in an answer's leading {"id":"r<index>", parsed in
   place; -1 for anything else. *)
let index_at b o l =
  let prefix = Traffic.id_prefix in
  let p = String.length prefix in
  let rec same k = k = p || (Bytes.get b (o + k) = prefix.[k] && same (k + 1)) in
  let rec digits k acc =
    if k >= l then -1
    else
      match Bytes.get b (o + k) with
      | '0' .. '9' as ch -> digits (k + 1) ((acc * 10) + Char.code ch - 48)
      | '"' when k > p -> acc
      | _ -> -1
  in
  if l > p && same 0 then digits p 0 else -1

let reader log fd () =
  let start = ref 0 and used = ref 0 in
  let record o l =
    let t = now () in
    let i = index_at log.arena o l in
    if i < 0 || i >= log.cap then log.strays <- log.strays + 1
    else if answered log i then log.dups <- log.dups + 1
    else begin
      log.recv.(i) <- t;
      log.off.(i) <- o;
      log.len.(i) <- l;
      Mutex.lock log.m;
      log.answered <- log.answered + 1;
      if log.answered >= log.wake_at then Condition.signal log.c;
      Mutex.unlock log.m
    end
  in
  let rec loop () =
    if Bytes.length log.arena - !used < 65536 then begin
      let a = Bytes.create (2 * Bytes.length log.arena) in
      Bytes.blit log.arena 0 a 0 !used;
      log.arena <- a
    end;
    match Unix.read fd log.arena !used 65536 with
    | 0 -> ()
    | n ->
      for j = !used to !used + n - 1 do
        if Bytes.get log.arena j = '\n' then begin
          record !start (j - !start);
          start := j + 1
        end
      done;
      used := !used + n;
      loop ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
  in
  loop ();
  Mutex.lock log.m;
  log.eof <- true;
  Condition.broadcast log.c;
  Mutex.unlock log.m

let start_reader log p = Domain.spawn (reader log p.from_srv)

(* Stop a server whose answers a reader domain is taking: close its
   input, let the reader drain its output to the end, and reap it. *)
let finish p reader =
  Unix.close p.to_srv;
  Domain.join reader;
  Unix.close p.from_srv;
  waitpid p.pid

(* Block until [n] requests are answered; the number answered, or
   [None] if the server closed its output first. *)
let await log n =
  Mutex.lock log.m;
  log.wake_at <- n;
  while log.answered < n && not log.eof do
    Condition.wait log.c log.m
  done;
  let r = if log.answered >= n then Some log.answered else None in
  Mutex.unlock log.m;
  r

let wait_all log = await log log.sent_n <> None

(* Append request [i] to the send buffer at [pos]; returns the new end. *)
let put log pos i tail =
  let id = string_of_int i in
  let need = pos + String.length Traffic.id_prefix + String.length id + String.length tail + 2 in
  if need > Bytes.length log.out then begin
    let b = Bytes.create (max need (2 * Bytes.length log.out)) in
    Bytes.blit log.out 0 b 0 pos;
    log.out <- b
  end;
  let add pos s =
    Bytes.blit_string s 0 log.out pos (String.length s);
    pos + String.length s
  in
  let pos = add (add pos Traffic.id_prefix) id in
  Bytes.set log.out pos '"';
  let pos = add (pos + 1) tail in
  Bytes.set log.out pos '\n';
  pos + 1

(* Closed loop over requests [first, first + count) that stops sending
   at [until]; returns one past the last index sent. The window is
   refilled [window / 8] requests at a time, in one write, so the
   generator wakes once per batch rather than once per answer. *)
let closed p log ~tail ~first ~count ~window ~until =
  let batch = max 1 (window / 8) in
  let rec go i =
    if i >= first + count || now () >= until then i
    else
      match await log (log.sent_n - window + batch) with
      | None -> i
      | Some answered ->
        let n = min (first + count - i) (window - (log.sent_n - answered)) in
        let pos = ref 0 in
        for k = i to i + n - 1 do
          pos := put log !pos k (tail k)
        done;
        let ts = now () in
        for k = i to i + n - 1 do
          log.sent.(k) <- ts
        done;
        write_all p.to_srv log.out 0 !pos;
        log.sent_n <- log.sent_n + n;
        go (i + n)
  in
  go first

(* Open loop over [n] requests from [first] at [rate] per second,
   arriving [burst] at a time: requests [k] and [k + 1] share a due time
   unless [k + 1] is a multiple of [burst]. Everything already due is
   sent in one write, stamped with the time of that write. Returns each
   request's lateness (write time - due). *)
let open_loop p log ~tail ~first ~n ~rate ~burst =
  let late = Array.make n 0.0 in
  let t0 = now () +. 0.001 in
  let due k = t0 +. (float_of_int (k / burst * burst) /. rate) in
  let k = ref 0 in
  while !k < n do
    let wait = due !k -. now () in
    if wait > 0.0 then Unix.sleepf wait;
    let horizon = now () in
    let upto = ref !k and pos = ref 0 in
    while !upto < n && due !upto <= horizon do
      pos := put log !pos (first + !upto) (tail (first + !upto));
      incr upto
    done;
    let ts = now () in
    for j = !k to !upto - 1 do
      log.due.(first + j) <- due j;
      log.sent.(first + j) <- ts;
      late.(j) <- ts -. due j
    done;
    write_all p.to_srv log.out 0 !pos;
    log.sent_n <- log.sent_n + (!upto - !k);
    k := !upto
  done;
  late

(* ---- process accounting ------------------------------------------- *)

(* Peak resident set ([VmHWM]) of a live process, in kB. *)
let vm_hwm_kb pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0
  | ic ->
    let rec find () =
      match input_line ic with
      | l -> (
        match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with Some kb -> kb | None -> find ())
      | exception End_of_file -> 0
    in
    let kb = find () in
    close_in_noerr ic;
    kb

(* Child pids a fleet router reported on its stderr. *)
let fleet_children err_path =
  match open_in err_path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match input_line ic with
      | l -> (
        match Scanf.sscanf_opt l "fleet: shard %d up (pid %d)" (fun _ pid -> pid) with
        | Some pid -> go (pid :: acc)
        | None -> go acc)
      | exception End_of_file -> List.rev acc
    in
    let pids = go [] in
    close_in_noerr ic;
    pids

(* CPU seconds this process (all its domains) has used. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime
