type t = int

let of_int i =
  if i < 0 || i > 31 then invalid_arg (Printf.sprintf "Reg.of_int: %d" i);
  i

let to_int r = r

let zero = 0
let gp = 28
let fp = 29
let sp = 30
let ra = 31

let a i =
  if i < 0 || i > 7 then invalid_arg "Reg.a";
  4 + i

let s i =
  if i < 0 || i > 7 then invalid_arg "Reg.s";
  12 + i

let t i =
  if i < 0 || i > 7 then invalid_arg "Reg.t";
  20 + i

let name r =
  match r with
  | 0 -> "zero"
  | 28 -> "gp"
  | 29 -> "fp"
  | 30 -> "sp"
  | 31 -> "ra"
  | r when r >= 4 && r <= 11 -> Printf.sprintf "a%d" (r - 4)
  | r when r >= 12 && r <= 19 -> Printf.sprintf "s%d" (r - 12)
  | r when r >= 20 && r <= 27 -> Printf.sprintf "t%d" (r - 20)
  | r -> Printf.sprintf "r%d" r

(* [r0]..[r31], [a0]..[a7], [s0]..[s7], [t0]..[t7]; the index is
   whatever [int_of_string] reads after the letter. *)
let of_name s =
  match s with
  | "zero" -> Some 0
  | "gp" -> Some 28
  | "fp" -> Some 29
  | "sp" -> Some 30
  | "ra" -> Some 31
  | _ -> (
    let n = String.length s in
    let base, limit =
      match if n < 2 then ' ' else s.[0] with
      | 'r' -> (0, 32)
      | 'a' -> (4, 8)
      | 's' -> (12, 8)
      | 't' -> (20, 8)
      | _ -> (0, 0)
    in
    if limit = 0 then None
    else
      match int_of_string_opt (String.sub s 1 (n - 1)) with
      | Some i when i >= 0 && i < limit -> Some (base + i)
      | Some _ | None -> None)

let pp fmt r = Format.pp_print_string fmt (name r)

let equal = Int.equal
let compare = Int.compare
