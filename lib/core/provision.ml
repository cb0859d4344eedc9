module Keys = Sofia_crypto.Keys
module Image = Sofia_transform.Image

type device = { device_id : string; keys : Keys.t }

type release = { version : int; nonce : int; images : (string * Image.t) list }

let mint_fleet ~seed ~count =
  let rng = Sofia_util.Prng.create ~seed in
  List.init count (fun i ->
    { device_id = Printf.sprintf "dev-%03d" i;
      keys = Keys.generate ~seed:(Sofia_util.Prng.next64 rng) })

let nonce_of_version version =
  if version < 0 then Error "version must be non-negative"
  else if version > 0xFF then
    Error "version exceeds the 8-bit nonce space: re-keying required before wrapping ω"
  else Ok version

(* The layout depends on the program alone, so a release is laid out
   once and only encrypted and verified per device (paper §II: the
   provider holds every device's keys). *)
let release ~devices ~version program =
  match nonce_of_version version with
  | Error m -> Error m
  | Ok nonce -> (
    let rec build layout acc = function
      | [] -> Ok { version; nonce; images = List.rev acc }
      | d :: rest -> (
        let image =
          Sofia_transform.Transform.encrypt ~backend:Sofia_transform.Backend_id.Sofia
            ~keys:d.keys ~nonce layout
        in
        match Sofia_transform.Verify.check_against_source ~keys:d.keys program image with
        | [] -> build layout ((d.device_id, image) :: acc) rest
        | issue :: _ ->
          Error
            (Format.asprintf "%s: verification failed: %a" d.device_id
               Sofia_transform.Verify.pp_issue issue))
    in
    match devices with
    | [] -> Ok { version; nonce; images = [] }
    | first :: _ -> (
      match Sofia_transform.Layout.layout program with
      | Error e ->
        Error
          (Format.asprintf "%s: transformation failed: %a" first.device_id
             Sofia_transform.Layout.pp_error e)
      | Ok layout -> build layout [] devices))

let image_for release ~device_id = List.assoc_opt device_id release.images

let ciphertext_diversity release =
  match release.images with
  | [] | [ _ ] -> 1.0
  | (_, first) :: _ ->
    let words = Array.length first.Image.cipher in
    if words = 0 then 1.0
    else begin
      let all_distinct = ref 0 in
      for i = 0 to words - 1 do
        let values = List.map (fun (_, img) -> img.Image.cipher.(i)) release.images in
        let distinct = List.sort_uniq compare values in
        if List.length distinct = List.length values then incr all_distinct
      done;
      float_of_int !all_distinct /. float_of_int words
    end
