(* Seeded request streams. A stream is an unbounded, deterministic
   sequence of requests: request [i] is the same for a given seed
   whatever rate the server consumed the stream at, so every phase of
   every run (and the traced run) sends a prefix of the same list. *)

module Job = Sofia.Service.Job
module Prng = Sofia.Util.Prng
module Backend_id = Sofia.Transform.Backend_id
module J = Sofia.Obs.Json
module W = Sofia.Workloads.Workload

type op = Protect | Attest | Verify | Sim_sofia | Sim_vanilla

(* One image identity: requests sharing it share the serving store's
   entry and the disk tier's files; the fleet replay cache additionally
   keys on the op. *)
type image_key = {
  kid : int;  (** distinct keys are numbered in order of creation *)
  prog : W.t;
  key_seed : int64;
  nonce : int;
  backend : Backend_id.t;
}

type content = {
  req : Job.request;  (** the request, id aside *)
  key : image_key;
  mutable tail : string;  (** wire form after the id field; "" until rendered *)
}

type shape = {
  mix : (int * op) list;  (** percent weights, summing to 100 *)
  scfp_pct : int;  (** share of keys protected under SCFP *)
  hot : int;  (** hot keys drawn Zipf(1.0); 0 = every request fresh *)
  hot_pct : int;  (** share of requests that draw a hot key *)
  reuse_pct : int;  (** share of requests that take the next key of [reuse] *)
}

(* A bag hands out a shuffled multiset one element at a time and
   refills when empty, so every run of |bag| draws holds each element
   exactly its share: seeds change the order and the keys, never the
   composition of the traffic. *)
type 'a bag = { elems : 'a array; mutable next : int; brng : Prng.t }

let bag rng elems = { elems = Array.copy elems; next = Array.length elems; brng = Prng.split rng }

let draw b =
  if b.next >= Array.length b.elems then begin
    Prng.shuffle b.brng b.elems;
    b.next <- 0
  end;
  b.next <- b.next + 1;
  b.elems.(b.next - 1)

(* [weights] as a 100-element multiset *)
let percent rng weights = bag rng (Array.concat (List.map (fun (w, x) -> Array.make w x) weights))

type source = Hot | Reuse | Fresh

type t = {
  rng : Prng.t;
  ops : op bag;
  sources : source bag;
  backends : Backend_id.t bag;
  progs : W.t bag;
  mutable next_kid : int;
  mutable hot_keys : image_key array;
  zipf_cdf : float array;
  reuse : image_key array;
  mutable reuse_next : int;
  hot_contents : (int * op, content) Hashtbl.t;
  mutable items : content array;
  mutable len : int;
}

let key_for t prog =
  let key_seed = Prng.next64 t.rng in
  let nonce = Prng.int_below t.rng 256 in
  let k = { kid = t.next_kid; prog; key_seed; nonce; backend = draw t.backends } in
  t.next_kid <- t.next_kid + 1;
  k

let create ?(first_kid = 0) ?(reuse = [||]) ~seed ~pool shape =
  let rng = Prng.create ~seed in
  let weights = Array.init shape.hot (fun r -> 1.0 /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let acc = ref 0.0 in
  let t =
    {
      rng;
      ops = percent rng shape.mix;
      sources =
        percent rng
          [ (shape.hot_pct, Hot); (shape.reuse_pct, Reuse);
            (100 - shape.hot_pct - shape.reuse_pct, Fresh) ];
      backends =
        percent rng [ (shape.scfp_pct, Backend_id.Scfp); (100 - shape.scfp_pct, Backend_id.Sofia) ];
      progs = bag rng pool;
      next_kid = first_kid;
      hot_keys = [||];
      zipf_cdf =
        Array.map
          (fun w ->
            acc := !acc +. (w /. total);
            !acc)
          weights;
      reuse;
      reuse_next = 0;
      hot_contents = Hashtbl.create 256;
      items = [||];
      len = 0;
    }
  in
  (* hot rank r holds the r-th smallest program (cycling), the same for
     every seed: the Zipf head is short requests, so the router's own
     work, not copying sources, is what the duplicates measure *)
  let by_size = Array.copy pool in
  Array.stable_sort
    (fun (a : W.t) (b : W.t) -> compare (String.length a.W.source) (String.length b.W.source))
    by_size;
  t.hot_keys <- Array.init shape.hot (fun r -> key_for t by_size.(r mod Array.length by_size));
  t

let zipf t =
  let u = Prng.float t.rng in
  let last = Array.length t.zipf_cdf - 1 in
  let rec find i = if i >= last || u < t.zipf_cdf.(i) then i else find (i + 1) in
  find 0

let request_of (k : image_key) op =
  let source = k.prog.W.source in
  let spec =
    match op with
    | Protect -> Job.Protect { source }
    | Attest -> Job.Attest { source }
    | Verify -> Job.Verify { source }
    | Sim_sofia -> Job.Simulate { source; sofia = true }
    | Sim_vanilla -> Job.Simulate { source; sofia = false }
  in
  Job.make ~key_seed:k.key_seed ~nonce:k.nonce ~backend:k.backend ~id:"" spec

let generate t =
  let op = draw t.ops in
  match draw t.sources with
  | Hot -> (
    let k = t.hot_keys.(zipf t) in
    match Hashtbl.find_opt t.hot_contents (k.kid, op) with
    | Some c -> c
    | None ->
      let c = { req = request_of k op; key = k; tail = "" } in
      Hashtbl.add t.hot_contents (k.kid, op) c;
      c)
  | (Reuse | Fresh) as src ->
    let k =
      if src = Reuse && Array.length t.reuse > 0 then begin
        let k = t.reuse.(t.reuse_next mod Array.length t.reuse) in
        t.reuse_next <- t.reuse_next + 1;
        k
      end
      else key_for t (draw t.progs)
    in
    { req = request_of k op; key = k; tail = "" }

let get t i =
  while t.len <= i do
    let c = generate t in
    if t.len = Array.length t.items then begin
      let items = Array.make (max 1024 (2 * t.len)) c in
      Array.blit t.items 0 items 0 t.len;
      t.items <- items
    end;
    t.items.(t.len) <- c;
    t.len <- t.len + 1
  done;
  t.items.(i)

(* Every image key of the first [n] requests, in order of first use. *)
let keys t n =
  let seen = Hashtbl.create 1024 in
  let out = ref [] in
  for i = 0 to n - 1 do
    let k = (get t i).key in
    if not (Hashtbl.mem seen k.kid) then begin
      Hashtbl.add seen k.kid ();
      out := k :: !out
    end
  done;
  Array.of_list (List.rev !out)

let id_of i = "r" ^ string_of_int i

(* Request ids are "r<index>" and the id is the first field of every
   request and response line, so the reader finds it without parsing. *)
let id_prefix = "{\"id\":\"r"

(* The wire form of request [i] after its id: ["op":...}]. Rendered
   once and kept, so sending costs a copy, not a JSON encoding. *)
let tail t i =
  let c = get t i in
  if c.tail = "" then begin
    let s = J.to_string (Job.request_to_json c.req) in
    (* s starts {"id":"" and the tail is everything after it *)
    c.tail <- String.sub s 8 (String.length s - 8)
  end;
  c.tail

let line t i = id_prefix ^ string_of_int i ^ "\"" ^ tail t i

let request t i = { (get t i).req with Job.id = id_of i }
