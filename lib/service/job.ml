module J = Sofia_obs.Json
module Backend_id = Sofia_transform.Backend_id

type spec =
  | Protect of { source : string }
  | Verify of { source : string }
  | Simulate of { source : string; sofia : bool }
  | Attest of { source : string }
  | Run_image of { path : string }
  | Ping

type request = {
  id : string;
  key_seed : int64;
  nonce : int;
  backend : Backend_id.t;
  deadline_ms : int option;
  spec : spec;
}

let default_key_seed = 0x50F1AL

let make ?(key_seed = default_key_seed) ?(nonce = 1) ?(backend = Backend_id.Sofia)
    ?deadline_ms ~id spec =
  { id; key_seed; nonce; backend; deadline_ms; spec }

let op_name = function
  | Protect _ -> "protect"
  | Verify _ -> "verify"
  | Simulate _ -> "simulate"
  | Attest _ -> "attest"
  | Run_image _ -> "run_image"
  | Ping -> "ping"

type payload =
  | Protected of {
      text_bytes : int;
      expansion : float;
      blocks : int;
      digest : string;
      cached : bool;
    }
  | Verified of { issues : int; cached : bool }
  | Simulated of {
      outcome : string;
      outputs : int list;
      cycles : int;
      instructions : int;
      cached : bool;
    }
  | Attested of { digest : string; mac : string; issues : int; cached : bool }
  | Ran of { outcome : string; outputs : int list; cycles : int; instructions : int }
  | Ponged of { shard : int; workers : int }

type status = Done of payload | Rejected of string | Timed_out | Failed of string

type response = {
  id : string;
  op : string;
  seq : int;
  completion : int;
  attempts : int;
  worker : int;
  latency_ms : float;
  ts : float;
  status : status;
}

let status_name = function
  | Done _ -> "done"
  | Rejected _ -> "rejected"
  | Timed_out -> "timed_out"
  | Failed _ -> "failed"

(* ---- encoding ---- *)

let request_to_json (r : request) =
  (* key_seed travels as a hex string: OCaml's int is 63-bit, so a
     JSON integer cannot carry bit 63 of the seed and an int-encoded
     request would re-decode under a different key. *)
  let base =
    [ ("id", J.Str r.id); ("op", J.Str (op_name r.spec));
      ("key_seed", J.Str (Printf.sprintf "0x%Lx" r.key_seed)); ("nonce", J.Int r.nonce) ]
  in
  (* [backend] is omitted for SOFIA so every pre-PR-8 wire line (and
     its golden-file replay) stays byte-identical *)
  let backend =
    match r.backend with
    | Backend_id.Sofia -> []
    | b -> [ ("backend", J.Str (Backend_id.name b)) ]
  in
  let deadline =
    match r.deadline_ms with Some d -> [ ("deadline_ms", J.Int d) ] | None -> []
  in
  let spec =
    match r.spec with
    | Protect { source } | Verify { source } | Attest { source } ->
      [ ("source", J.Str source) ]
    | Simulate { source; sofia } -> [ ("source", J.Str source); ("sofia", J.Bool sofia) ]
    | Run_image { path } -> [ ("path", J.Str path) ]
    | Ping -> []
  in
  J.Obj (base @ backend @ deadline @ spec)

let payload_fields = function
  | Protected { text_bytes; expansion; blocks; digest; cached } ->
    [ ("text_bytes", J.Int text_bytes); ("expansion", J.Float expansion);
      ("blocks", J.Int blocks); ("digest", J.Str digest); ("cached", J.Bool cached) ]
  | Verified { issues; cached } ->
    [ ("issues", J.Int issues); ("ok", J.Bool (issues = 0)); ("cached", J.Bool cached) ]
  | Simulated { outcome; outputs; cycles; instructions; cached } ->
    [ ("outcome", J.Str outcome); ("outputs", J.List (List.map (fun v -> J.Int v) outputs));
      ("cycles", J.Int cycles); ("instructions", J.Int instructions);
      ("cached", J.Bool cached) ]
  | Attested { digest; mac; issues; cached } ->
    [ ("digest", J.Str digest); ("mac", J.Str mac); ("issues", J.Int issues);
      ("ok", J.Bool (issues = 0)); ("cached", J.Bool cached) ]
  | Ran { outcome; outputs; cycles; instructions } ->
    [ ("outcome", J.Str outcome); ("outputs", J.List (List.map (fun v -> J.Int v) outputs));
      ("cycles", J.Int cycles); ("instructions", J.Int instructions) ]
  | Ponged { shard; workers } -> [ ("shard", J.Int shard); ("workers", J.Int workers) ]

let response_to_json r =
  let status_fields =
    match r.status with
    | Done p -> payload_fields p
    | Rejected reason -> [ ("error", J.Str reason) ]
    | Timed_out -> []
    | Failed reason -> [ ("error", J.Str reason) ]
  in
  J.Obj
    ([ ("id", J.Str r.id); ("op", J.Str r.op); ("status", J.Str (status_name r.status));
       ("seq", J.Int r.seq); ("completion", J.Int r.completion);
       ("attempts", J.Int r.attempts); ("worker", J.Int r.worker);
       ("latency_ms", J.Float r.latency_ms); ("ts_unix", J.Float r.ts) ]
    @ status_fields)

let response_to_line r = J.to_string (response_to_json r)

let error_line ~id msg =
  J.to_string
    (J.Obj
       [ ("id", match id with Some i -> J.Str i | None -> J.Null);
         ("status", J.Str "error"); ("error", J.Str msg) ])

(* ---- decoding ---- *)

let str_field j name =
  match J.member name j with
  | Some (J.Str s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

let int_field_opt j name =
  match J.member name j with
  | Some (J.Int n) -> Ok (Some n)
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" name)
  | None -> Ok None

let bool_field_opt j name ~default =
  match J.member name j with
  | Some (J.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" name)
  | None -> Ok default

(* symmetric with the encoder (hex string), plus plain JSON integers
   for hand-written requests *)
let key_seed_field j =
  match J.member "key_seed" j with
  | None -> Ok default_key_seed
  | Some (J.Int n) -> Ok (Int64.of_int n)
  | Some (J.Str s) -> (
    match Int64.of_string_opt (String.trim s) with
    | Some v -> Ok v
    | None -> Error "field \"key_seed\" must be an integer or a 0x-hex/decimal string")
  | Some _ -> Error "field \"key_seed\" must be an integer or a 0x-hex/decimal string"

let ( let* ) = Result.bind

(* absent field = the serving default (engine-configured in wire mode,
   SOFIA otherwise), so existing request files keep their meaning *)
let backend_field j ~default =
  match J.member "backend" j with
  | None -> Ok default
  | Some (J.Str s) -> (
    match Backend_id.of_name s with
    | Some b -> Ok b
    | None ->
      Error
        (Printf.sprintf "unknown backend %S (expected %s)" s
           (String.concat "|" (List.map Backend_id.name Backend_id.all))))
  | Some _ -> Error "field \"backend\" must be a string"

let request_of_json ?(default_backend = Backend_id.Sofia) j =
  match j with
  | J.Obj _ ->
    let* id = str_field j "id" in
    let* op = str_field j "op" in
    let* key_seed = key_seed_field j in
    let* nonce = int_field_opt j "nonce" in
    let nonce = Option.value nonce ~default:1 in
    let* backend = backend_field j ~default:default_backend in
    let* deadline_ms = int_field_opt j "deadline_ms" in
    let* spec =
      match op with
      | "protect" ->
        let* source = str_field j "source" in
        Ok (Protect { source })
      | "verify" ->
        let* source = str_field j "source" in
        Ok (Verify { source })
      | "simulate" ->
        let* source = str_field j "source" in
        let* sofia = bool_field_opt j "sofia" ~default:true in
        Ok (Simulate { source; sofia })
      | "attest" ->
        let* source = str_field j "source" in
        Ok (Attest { source })
      | "run_image" ->
        let* path = str_field j "path" in
        Ok (Run_image { path })
      | "ping" -> Ok Ping
      | other ->
        Error
          (Printf.sprintf
             "unknown op %S (expected protect|verify|simulate|attest|run_image|ping)" other)
    in
    if nonce < 0 || nonce > 0xFF then Error "nonce must be in [0, 255]"
    else Ok { id; key_seed; nonce; backend; deadline_ms; spec }
  | _ -> Error "request must be a JSON object"

let request_of_line ?default_backend line =
  match J.parse_opt line with
  | None -> Error "malformed JSON"
  | Some j -> request_of_json ?default_backend j
