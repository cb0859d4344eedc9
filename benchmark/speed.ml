(* The host's current speed, from a fixed kernel that uses none of the
   repository's code, so no change to the system under test moves it.

   The shared 2-vCPU hosts this benchmark runs on slow down by up to a
   third for seconds at a time while the same code runs (other tenants),
   and their two vCPUs often run at different speeds; the kernel slows
   down with them. Timed metrics are reported scaled to [reference]
   kernel rounds per second, which keeps a slow minute from reading as a
   regression. *)

(* One round is three small programs of the kinds the servers run: an
   interpreter loop (dispatch on an opcode, register and memory arrays),
   a sort, and a hash table filled and probed. All three are bound by
   how many instructions the core retires per cycle, as the servers
   are, so they slow down when another tenant shares the physical core.
   A single dependency chain, such as an FNV-1a loop over a buffer, is
   bound by latency instead and misses those slow-downs: over one
   minute on one vCPU the simulator's speed fell by a third for seconds
   at a time while an FNV-1a loop's moved by 5%. The kernel allocates
   nothing, so the generator's own heap, which differs by workload,
   does not set its speed through the collector. *)

let code = Array.init 512 (fun i -> ((i * 7) + (i lsr 3)) mod 6)
let regs = Array.make 8 1
let mem = Array.make 1024 0

let interpret () =
  for pc = 0 to 8191 do
    let i = pc land 511 in
    match code.(i) with
    | 0 -> regs.(i land 7) <- regs.((i + 1) land 7) + regs.((i + 2) land 7)
    | 1 -> regs.(i land 7) <- regs.(i land 7) lxor (pc * 31)
    | 2 -> mem.(regs.(i land 7) land 1023) <- regs.((i + 3) land 7)
    | 3 -> regs.(i land 7) <- mem.(regs.((i + 5) land 7) land 1023)
    | 4 -> if regs.(i land 7) land 1 = 0 then regs.((i + 1) land 7) <- regs.((i + 1) land 7) + 1
    | _ -> regs.(i land 7) <- regs.(i land 7) lsr 1
  done

let keys = Array.init 4096 (fun i -> (i * 2654435761) land 0xFFFFF)
let sorted = Array.make 4096 0

let sort () =
  Array.blit keys 0 sorted 0 4096;
  Array.sort (fun (a : int) b -> compare a b) sorted

(* open addressing, linear probing; a slot holds key + 1, 0 = empty *)
let slots = Array.make 4096 0

let hash () =
  Array.fill slots 0 4096 0;
  let slot k = (k * 0x9E3779B1) lsr 7 land 4095 in
  let rec put k j = if slots.(j) = 0 then slots.(j) <- k + 1 else put k ((j + 1) land 4095) in
  let rec find k j = slots.(j) <> 0 && (slots.(j) = k + 1 || find k ((j + 1) land 4095)) in
  for i = 0 to 2047 do
    put keys.(i) (slot keys.(i))
  done;
  let hits = ref 0 in
  Array.iter (fun k -> if find k (slot k) then incr hits) keys;
  ignore (Sys.opaque_identity !hits)

let round () =
  interpret ();
  sort ();
  hash ()

(* Rounds per second over [seconds]. *)
let sample seconds =
  let now = Load.now in
  let t0 = now () in
  let n = ref 0 in
  while now () -. t0 < seconds do
    round ();
    incr n
  done;
  float_of_int !n /. (now () -. t0)

(* Rounds per second on each CPU of [cpus] (an {!Affinity} mask),
   lowest first, [seconds] in all: the calling thread runs the kernel on
   each CPU in turn, then goes back to the CPUs it had. With [cpus] = 0
   (affinity unknown), one sample wherever the thread runs. *)
let per_cpu seconds cpus =
  let each = List.filter (fun c -> cpus land (1 lsl c) <> 0) (List.init 62 Fun.id) in
  match each with
  | [] -> [| sample seconds |]
  | _ ->
    let back = Affinity.current () in
    let share = seconds /. float_of_int (List.length each) in
    let s =
      Array.of_list
        (List.map
           (fun c ->
             ignore (Affinity.set_thread 0 (1 lsl c));
             sample share)
           each)
    in
    ignore (Affinity.set_thread 0 back);
    s

let mean s = Array.fold_left ( +. ) 0.0 s /. float_of_int (Array.length s)

(* The speed of the calibration host: rounds per second measured there
   when the benchmark's rates were chosen. *)
let reference = 1_150.0
