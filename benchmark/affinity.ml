(* Which CPUs whole processes may run on. A mask has bit [c] set for
   CPU [c] (the first 62 CPUs). *)

external get_thread : int -> int = "bench_getaffinity"
external set_thread : int -> int -> bool = "bench_setaffinity"

(* The CPUs this process may run on now; 0 if unknown. *)
let current () = get_thread 0

(* The lowest CPU of [mask]. *)
let lowest mask = mask land -mask

let threads pid =
  match Sys.readdir (Printf.sprintf "/proc/%d/task" pid) with
  | names -> List.filter_map int_of_string_opt (Array.to_list names)
  | exception Sys_error _ -> []

(* Move every thread of every process in [pids] to [mask]; threads they
   start later inherit it. Whether every thread moved. *)
let set pids mask =
  List.for_all (fun pid -> List.for_all (fun tid -> set_thread tid mask) (threads pid)) pids
