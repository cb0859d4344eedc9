(* Differential testing of the MiniC compiler against the reference
   interpreter: random structured programs are run through

     interpreter  =  compiled-on-vanilla  =  compiled-and-SOFIA-protected

   and all three output streams must be identical. The programs come
   from [Minic_gen], terminating by construction. *)

module Parser = Sofia.Minic.Parser
module Interp = Sofia.Minic.Interp
module Compile = Sofia.Minic.Compile
module Machine = Sofia.Cpu.Machine

let keys = Sofia.Crypto.Keys.generate ~seed:0xD1FFL

let prop_compiler_matches_interpreter =
  QCheck.Test.make ~count:150
    ~name:"random programs: interpreter = compiled = protected"
    QCheck.(int_range 1 10_000_000)
    (fun seed ->
      let src = Minic_gen.generate ~seed:(Int64.of_int seed) () in
      let ast = Parser.parse src in
      match Interp.run ast with
      | Error m -> QCheck.Test.fail_reportf "interpreter rejected: %s\n%s" m src
      | Ok Interp.Fuel_exhausted -> QCheck.assume_fail ()
      | Ok (Interp.Finished expected) -> (
        match Compile.to_program src with
        | Error e ->
          QCheck.Test.fail_reportf "compiler rejected: %s\n%s"
            (Format.asprintf "%a" Compile.pp_error e)
            src
        | Ok program ->
          let v = Sofia.Cpu.Vanilla.run program in
          let image = Sofia.Transform.Transform.protect_exn ~keys ~nonce:(seed land 0xFF) program in
          let s = Sofia.Cpu.Sofia_runner.run ~keys image in
          (match (v.Machine.outcome, s.Machine.outcome) with
           | Machine.Halted _, Machine.Halted _ -> ()
           | _ ->
             QCheck.Test.fail_reportf "did not halt (%a / %a)\n%s" Machine.pp_outcome
               v.Machine.outcome Machine.pp_outcome s.Machine.outcome src);
          if v.Machine.outputs <> expected then
            QCheck.Test.fail_reportf "vanilla diverges from interpreter\n%s" src;
          if s.Machine.outputs <> expected then
            QCheck.Test.fail_reportf "SOFIA diverges from interpreter\n%s" src;
          true))

let test_interpreter_basics () =
  let run src =
    match Interp.run (Parser.parse src) with
    | Ok (Interp.Finished outs) -> outs
    | Ok Interp.Fuel_exhausted -> Alcotest.fail "fuel"
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check (list int)) "arith" [ 14 ] (run "int main() { out(2 + 3 * 4); return 0; }");
  Alcotest.(check (list int)) "loop+break" [ 10 ]
    (run
       "int main() { int s = 0; for (int i = 0; i < 100; i = i + 1) { if (i == 5) { break; } s = s + i; } out(s); return 0; }");
  Alcotest.(check (list int)) "funtable" [ 13; 7 ]
    (run
       "int t[] = { fa, fs };\nint fa(int a, int b) { return a + b; }\nint fs(int a, int b) { return a - b; }\nint main() { out(t[0](10, 3)); out(t[1](10, 3)); return 0; }");
  (* infinite loop hits the fuel bound instead of hanging *)
  (match Interp.run ~fuel:1000 (Parser.parse "int main() { while (1) { } return 0; }") with
   | Ok Interp.Fuel_exhausted -> ()
   | Ok (Interp.Finished _) | Error _ -> Alcotest.fail "expected fuel exhaustion");
  (* out-of-bounds is a semantic error, not silence *)
  match Interp.run (Parser.parse "int a[4];\nint main() { out(a[9]); return 0; }") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected out-of-bounds error"

let suite =
  [
    Alcotest.test_case "interpreter basics" `Quick test_interpreter_basics;
    QCheck_alcotest.to_alcotest prop_compiler_matches_interpreter;
  ]
