let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> 0.0
  | xs ->
    let logsum = List.fold_left (fun acc x -> acc +. log x) 0.0 xs in
    exp (logsum /. float_of_int (List.length xs))

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    let var = mean (List.map (fun x -> (x -. m) ** 2.0) xs) in
    sqrt var

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.0
  | n -> sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n /. 100.0)) - 1)))

let percent_overhead ~baseline ~measured = (measured -. baseline) /. baseline *. 100.0

let linear_fit points =
  let n = float_of_int (List.length points) in
  assert (n >= 2.0);
  let sx = List.fold_left (fun acc (x, _) -> acc +. x) 0.0 points in
  let sy = List.fold_left (fun acc (_, y) -> acc +. y) 0.0 points in
  let sxx = List.fold_left (fun acc (x, _) -> acc +. (x *. x)) 0.0 points in
  let sxy = List.fold_left (fun acc (x, y) -> acc +. (x *. y)) 0.0 points in
  let denom = (n *. sxx) -. (sx *. sx) in
  assert (abs_float denom > 1e-12);
  let a = ((n *. sxy) -. (sx *. sy)) /. denom in
  let b = (sy -. (a *. sx)) /. n in
  (a, b)
