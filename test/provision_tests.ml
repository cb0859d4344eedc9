(* Tests for fleet provisioning and release management. *)

module Provision = Sofia.Provision
module Machine = Sofia.Cpu.Machine

let program () =
  Sofia.Asm.Assembler.assemble
    "start:\n  li a0, 6\n  call f\n  li a1, 0xFFFF0000\n  st a0, 0(a1)\n  halt\nf:\n  mul a0, a0, a0\n  ret\n"

let test_fleet_minting () =
  let fleet = Provision.mint_fleet ~seed:7L ~count:5 in
  Alcotest.(check int) "count" 5 (List.length fleet);
  Alcotest.(check string) "ids" "dev-000" (List.hd fleet).Provision.device_id;
  let fingerprints =
    List.map (fun d -> Sofia.Crypto.Keys.fingerprint d.Provision.keys) fleet
  in
  Alcotest.(check int) "all key sets distinct" 5
    (List.length (List.sort_uniq compare fingerprints));
  (* deterministic from the seed *)
  let fleet' = Provision.mint_fleet ~seed:7L ~count:5 in
  Alcotest.(check (list string)) "reproducible" fingerprints
    (List.map (fun d -> Sofia.Crypto.Keys.fingerprint d.Provision.keys) fleet')

let test_nonce_policy () =
  Alcotest.(check bool) "v0 ok" true (Provision.nonce_of_version 0 = Ok 0);
  Alcotest.(check bool) "v255 ok" true (Provision.nonce_of_version 255 = Ok 255);
  Alcotest.(check bool) "v256 refused" true (Result.is_error (Provision.nonce_of_version 256));
  Alcotest.(check bool) "negative refused" true (Result.is_error (Provision.nonce_of_version (-1)))

let test_release_runs_everywhere () =
  let fleet = Provision.mint_fleet ~seed:11L ~count:4 in
  match Provision.release ~devices:fleet ~version:3 (program ()) with
  | Error m -> Alcotest.fail m
  | Ok rel ->
    Alcotest.(check int) "nonce = version" 3 rel.Provision.nonce;
    List.iter
      (fun d ->
        match Provision.image_for rel ~device_id:d.Provision.device_id with
        | None -> Alcotest.fail "missing image"
        | Some image ->
          let r = Sofia.Cpu.Sofia_runner.run ~keys:d.Provision.keys image in
          Alcotest.(check (list int))
            (d.Provision.device_id ^ " runs its image")
            [ 36 ] r.Machine.outputs)
      fleet

(* the release lays out once; each device's image must still be the
   one a per-device protect builds, byte for byte *)
let test_release_matches_per_device_protect () =
  let fleet = Provision.mint_fleet ~seed:23L ~count:4 in
  let p = program () in
  let serialize = Sofia.Transform.Binary_format.serialize in
  match Provision.release ~devices:fleet ~version:9 p with
  | Error m -> Alcotest.fail m
  | Ok rel ->
    List.iter
      (fun d ->
        let expected =
          serialize (Sofia.Transform.Transform.protect_exn ~keys:d.Provision.keys ~nonce:9 p)
        in
        match Provision.image_for rel ~device_id:d.Provision.device_id with
        | None -> Alcotest.fail "missing image"
        | Some image ->
          Alcotest.(check bool)
            (d.Provision.device_id ^ " image = per-device protect")
            true
            (Bytes.equal expected (serialize image)))
      fleet

let test_cross_device_rejection () =
  let fleet = Provision.mint_fleet ~seed:13L ~count:2 in
  match (fleet, Provision.release ~devices:fleet ~version:1 (program ())) with
  | [ d0; d1 ], Ok rel ->
    let image0 = Option.get (Provision.image_for rel ~device_id:d0.Provision.device_id) in
    (match (Sofia.Cpu.Sofia_runner.run ~keys:d1.Provision.keys image0).Machine.outcome with
     | Machine.Cpu_reset _ -> ()
     | o -> Alcotest.fail (Format.asprintf "cross-device image ran: %a" Machine.pp_outcome o))
  | _, Error m -> Alcotest.fail m
  | _, _ -> Alcotest.fail "fleet shape"

let test_ciphertext_diversity () =
  let fleet = Provision.mint_fleet ~seed:17L ~count:3 in
  match Provision.release ~devices:fleet ~version:2 (program ()) with
  | Error m -> Alcotest.fail m
  | Ok rel ->
    let d = Provision.ciphertext_diversity rel in
    Alcotest.(check bool)
      (Printf.sprintf "diversity %.3f ~ 1.0" d)
      true (d > 0.99)

let test_version_bump_invalidates_old_blocks () =
  let fleet = Provision.mint_fleet ~seed:19L ~count:1 in
  let p = program () in
  match
    (Provision.release ~devices:fleet ~version:1 p, Provision.release ~devices:fleet ~version:2 p)
  with
  | Ok r1, Ok r2 ->
    let i1 = snd (List.hd r1.Provision.images) in
    let i2 = snd (List.hd r2.Provision.images) in
    Alcotest.(check bool) "versions share no ciphertext" true
      (i1.Sofia.Transform.Image.cipher <> i2.Sofia.Transform.Image.cipher)
  | Error m, _ | _, Error m -> Alcotest.fail m

let suite =
  [
    Alcotest.test_case "fleet minting" `Quick test_fleet_minting;
    Alcotest.test_case "nonce policy" `Quick test_nonce_policy;
    Alcotest.test_case "release runs on every device" `Quick test_release_runs_everywhere;
    Alcotest.test_case "release image = per-device protect" `Quick
      test_release_matches_per_device_protect;
    Alcotest.test_case "cross-device image rejected" `Quick test_cross_device_rejection;
    Alcotest.test_case "ciphertext diversity" `Quick test_ciphertext_diversity;
    Alcotest.test_case "version bump changes all ciphertext" `Quick
      test_version_bump_invalidates_old_blocks;
  ]
