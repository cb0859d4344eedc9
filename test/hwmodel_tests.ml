(* Tests for the Table-I area/timing model. *)

module H = Sofia.Hwmodel.Hwmodel

let check_int = Alcotest.(check int)

let test_vanilla_calibration () =
  let v = H.synthesize_vanilla () in
  check_int "slices calibrated to Table I" H.vanilla_reference_slices v.H.slices;
  Alcotest.(check (float 0.05)) "fmax calibrated" H.vanilla_reference_fmax_mhz v.H.fmax_mhz

let test_sofia_prediction () =
  let s = H.synthesize_sofia () in
  let slice_err =
    abs_float (float_of_int (s.H.slices - H.sofia_reference_slices))
    /. float_of_int H.sofia_reference_slices
  in
  Alcotest.(check bool)
    (Printf.sprintf "slices %d within 2%% of 7551" s.H.slices)
    true (slice_err < 0.02);
  let fmax_err = abs_float (s.H.fmax_mhz -. H.sofia_reference_fmax_mhz) /. H.sofia_reference_fmax_mhz in
  Alcotest.(check bool)
    (Printf.sprintf "fmax %.1f within 2%% of 50.1" s.H.fmax_mhz)
    true (fmax_err < 0.02)

let test_overhead_shapes () =
  let area = H.area_overhead_pct () in
  Alcotest.(check bool)
    (Printf.sprintf "area overhead %.1f%% ~ 28.2%%" area)
    true
    (area > 25.0 && area < 31.0);
  let ratio = H.clock_ratio () in
  Alcotest.(check bool)
    (Printf.sprintf "clock ratio %.2f ~ 1.84" ratio)
    true
    (ratio > 1.75 && ratio < 1.95);
  (* SCFP drops the mux trees and per-edge keystream muxes: its
     frontend must synthesize strictly smaller than SOFIA's *)
  let scfp = H.scfp_area_overhead_pct () in
  Alcotest.(check bool)
    (Printf.sprintf "scfp area %.1f%% below sofia %.1f%%" scfp area)
    true (scfp < area)

let test_cipher_cycles () =
  check_int "unroll 13 -> 2 cycles (paper §III)" 2 (H.cycles_per_cipher_op ~unroll:13);
  check_int "unroll 1 -> 26 cycles" 26 (H.cycles_per_cipher_op ~unroll:1);
  check_int "unroll 26 -> 1 cycle" 1 (H.cycles_per_cipher_op ~unroll:26);
  check_int "unroll 2 -> 13" 13 (H.cycles_per_cipher_op ~unroll:2)

let test_unroll_sweep_monotone () =
  let sweep = H.sweep_unroll [ 1; 2; 4; 13; 26 ] in
  let rec pairs = function
    | (u1, s1, c1) :: ((u2, s2, c2) :: _ as rest) ->
      Alcotest.(check bool) "area grows with unrolling" true (s2.H.slices > s1.H.slices);
      Alcotest.(check bool) "cycles shrink" true (c2 <= c1);
      Alcotest.(check bool) "fmax never improves" true (s2.H.fmax_mhz <= s1.H.fmax_mhz +. 0.001);
      ignore (u1, u2);
      pairs rest
    | [ _ ] | [] -> ()
  in
  pairs sweep;
  (* small unrollings leave the vanilla path critical *)
  match sweep with
  | (1, s1, _) :: _ ->
    Alcotest.(check (float 0.05)) "unroll 1 keeps vanilla clock" H.vanilla_reference_fmax_mhz
      s1.H.fmax_mhz
  | _ -> Alcotest.fail "sweep shape"

let test_component_inventories () =
  Alcotest.(check bool) "vanilla inventory non-trivial" true
    (List.length H.leon3_components >= 8);
  let additions = H.sofia_additions ~unroll:13 in
  Alcotest.(check bool) "sofia additions non-trivial" true (List.length additions >= 7);
  (* the unrolled cipher dominates the additions, as the paper reports *)
  let total = List.fold_left (fun a c -> a + c.H.res.H.luts) 0 additions in
  let cipher =
    List.find (fun c -> c.H.res.H.luts >= 1000) additions
  in
  Alcotest.(check bool) "cipher dominates" true
    (float_of_int cipher.H.res.H.luts /. float_of_int total > 0.4)

let suite =
  [
    Alcotest.test_case "vanilla calibration" `Quick test_vanilla_calibration;
    Alcotest.test_case "SOFIA prediction vs Table I" `Quick test_sofia_prediction;
    Alcotest.test_case "overhead shapes" `Quick test_overhead_shapes;
    Alcotest.test_case "cipher cycles per op" `Quick test_cipher_cycles;
    Alcotest.test_case "unroll sweep monotone" `Quick test_unroll_sweep_monotone;
    Alcotest.test_case "component inventories" `Quick test_component_inventories;
  ]
