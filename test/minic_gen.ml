(* Random structured MiniC programs for differential tests.
   Programs terminate by construction: calls only go to lower-numbered
   functions (no recursion), loops are counted with dedicated counters
   whose trip counts are drawn from [trips], and array indices are
   masked to the array size. The same seed and [trips] give the same
   program. *)

module Prng = Sofia.Util.Prng

let generate ?(trips = (1, 5)) ~seed () =
  let rng = Prng.create ~seed in
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let nfun = Prng.int_in rng ~lo:0 ~hi:3 in
  let nglobals = Prng.int_in rng ~lo:1 ~hi:3 in
  let fresh_counter = ref 0 in
  let fresh prefix =
    incr fresh_counter;
    Printf.sprintf "%s%d" prefix !fresh_counter
  in
  (* globals: scalars g0.. and one array arr of size 8 *)
  for g = 0 to nglobals - 1 do
    line "int g%d = %d;" g (Prng.int_in rng ~lo:(-100) ~hi:100)
  done;
  line "int arr[8] = { %s };"
    (String.concat ", " (List.init 8 (fun _ -> string_of_int (Prng.int_in rng ~lo:(-50) ~hi:50))));

  (* expression generator over the names in scope *)
  let rec gen_expr ~depth ~scope ~callable =
    if depth <= 0 || Prng.int_below rng 3 = 0 then
      match Prng.int_below rng 3 with
      | 0 -> string_of_int (Prng.int_in rng ~lo:(-200) ~hi:200)
      | 1 when scope <> [] -> List.nth scope (Prng.int_below rng (List.length scope))
      | _ -> Printf.sprintf "g%d" (Prng.int_below rng nglobals)
    else
      match Prng.int_below rng 10 with
      | 0 | 1 | 2 ->
        let op =
          List.nth
            [ "+"; "-"; "*"; "/"; "%"; "&"; "|"; "^"; "=="; "!="; "<"; "<="; ">"; ">="; "&&"; "||" ]
            (Prng.int_below rng 16)
        in
        Printf.sprintf "(%s %s %s)"
          (gen_expr ~depth:(depth - 1) ~scope ~callable)
          op
          (gen_expr ~depth:(depth - 1) ~scope ~callable)
      | 3 ->
        Printf.sprintf "(%s %s (%s & 31))"
          (gen_expr ~depth:(depth - 1) ~scope ~callable)
          (if Prng.bool rng then "<<" else ">>")
          (gen_expr ~depth:(depth - 1) ~scope ~callable)
      | 4 ->
        Printf.sprintf "(%s(%s))"
          (List.nth [ "-"; "~"; "!" ] (Prng.int_below rng 3))
          (gen_expr ~depth:(depth - 1) ~scope ~callable)
      | 5 -> Printf.sprintf "arr[(%s) & 7]" (gen_expr ~depth:(depth - 1) ~scope ~callable)
      | 6 when callable > 0 ->
        let f = Prng.int_below rng callable in
        let arity = (f mod 3) in
        let args =
          List.init arity (fun _ -> gen_expr ~depth:(depth - 1) ~scope ~callable)
        in
        Printf.sprintf "f%d(%s)" f (String.concat ", " args)
      | _ ->
        Printf.sprintf "(%s + %s)"
          (gen_expr ~depth:(depth - 1) ~scope ~callable)
          (gen_expr ~depth:(depth - 1) ~scope ~callable)
  in

  let rec gen_stmt ~indent ~scope ~callable ~in_loop ~budget =
    let pad = String.make indent ' ' in
    if !budget <= 0 then scope
    else begin
      decr budget;
      match Prng.int_below rng 12 with
      | 0 | 1 ->
        (* new local *)
        let name = fresh "x" in
        line "%sint %s = %s;" pad name (gen_expr ~depth:2 ~scope ~callable);
        name :: scope
      | 2 | 3 when scope <> [] ->
        line "%s%s = %s;" pad
          (List.nth scope (Prng.int_below rng (List.length scope)))
          (gen_expr ~depth:2 ~scope ~callable);
        scope
      | 4 ->
        line "%sg%d = %s;" pad (Prng.int_below rng nglobals) (gen_expr ~depth:2 ~scope ~callable);
        scope
      | 5 ->
        line "%sarr[(%s) & 7] = %s;" pad
          (gen_expr ~depth:1 ~scope ~callable)
          (gen_expr ~depth:2 ~scope ~callable);
        scope
      | 6 | 7 ->
        line "%sif (%s) {" pad (gen_expr ~depth:2 ~scope ~callable);
        ignore (gen_block ~indent:(indent + 2) ~scope ~callable ~in_loop ~budget);
        if Prng.bool rng then begin
          line "%s} else {" pad;
          ignore (gen_block ~indent:(indent + 2) ~scope ~callable ~in_loop ~budget)
        end;
        line "%s}" pad;
        scope
      | 8 ->
        (* counted loop with a dedicated counter *)
        let c = fresh "i" in
        line "%sfor (int %s = 0; %s < %d; %s = %s + 1) {" pad c c
          (Prng.int_in rng ~lo:(fst trips) ~hi:(snd trips))
          c c;
        let inner_scope = c :: scope in
        ignore (gen_block ~indent:(indent + 2) ~scope:inner_scope ~callable ~in_loop:true ~budget);
        line "%s}" pad;
        (* the counter is function-scoped (C89-style flat frame), so it
           stays in scope for reads *)
        inner_scope
      | 9 when in_loop && Prng.int_below rng 4 = 0 ->
        line "%sif (%s) { %s; }" pad
          (gen_expr ~depth:1 ~scope ~callable)
          (if Prng.bool rng then "break" else "continue");
        scope
      | _ ->
        line "%sout(%s);" pad (gen_expr ~depth:2 ~scope ~callable);
        scope
    end

  and gen_block ~indent ~scope ~callable ~in_loop ~budget =
    let n = Prng.int_in rng ~lo:1 ~hi:3 in
    let scope = ref scope in
    for _ = 1 to n do
      scope := gen_stmt ~indent ~scope:!scope ~callable ~in_loop ~budget
    done;
    !scope
  in

  for f = 0 to nfun - 1 do
    let arity = f mod 3 in
    let params = List.init arity (fun i -> Printf.sprintf "p%d" i) in
    line "int f%d(%s) {" f (String.concat ", " (List.map (fun p -> "int " ^ p) params));
    let budget = ref (Prng.int_in rng ~lo:2 ~hi:6) in
    ignore (gen_block ~indent:2 ~scope:params ~callable:f ~in_loop:false ~budget);
    line "  return %s;" (gen_expr ~depth:2 ~scope:params ~callable:f);
    line "}"
  done;
  line "int main() {";
  let budget = ref (Prng.int_in rng ~lo:4 ~hi:10) in
  let final_scope = gen_block ~indent:2 ~scope:[] ~callable:nfun ~in_loop:false ~budget in
  line "  out(%s);" (gen_expr ~depth:2 ~scope:final_scope ~callable:nfun);
  line "  return 0;";
  line "}";
  Buffer.contents buf
