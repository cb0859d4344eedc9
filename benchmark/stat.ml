(* Order statistics over float samples (nearest rank, as the serving
   metrics in lib/ report them). *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let percentile p xs =
  let a = sorted xs in
  match Array.length a with
  | 0 -> 0.0
  | n -> a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1)))

let median xs = percentile 50.0 xs

let sum xs = Array.fold_left ( +. ) 0.0 xs

(* The mean of [xs] without its lowest and its highest value. *)
let trimmed_mean xs =
  let a = sorted xs in
  let n = Array.length a in
  if n <= 2 then median a else sum (Array.sub a 1 (n - 2)) /. float_of_int (n - 2)

let geomean xs =
  match Array.length xs with
  | 0 -> 0.0
  | n -> Float.exp (sum (Array.map Float.log xs) /. float_of_int n)

(* A growable sample buffer. *)
type buf = { mutable a : float array; mutable n : int }

let buf () = { a = Array.make 256 0.0; n = 0 }

let add b x =
  if b.n = Array.length b.a then begin
    let a = Array.make (2 * b.n) 0.0 in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  b.a.(b.n) <- x;
  b.n <- b.n + 1

let samples b = Array.sub b.a 0 b.n
