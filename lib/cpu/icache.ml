type config = { size_bytes : int; line_bytes : int }

let default = { size_bytes = 4096; line_bytes = 32 }

(* Geometry is restricted to powers of two, so a probe indexes with a
   shift and a mask instead of three divisions. *)
type t = {
  lines : int array;  (* tag per set; -1 = invalid *)
  line_shift : int;  (* log2 line_bytes *)
  tag_shift : int;  (* log2 number of sets *)
  mutable n_access : int;
  mutable n_miss : int;
}

let is_pow2 x = x > 0 && x land (x - 1) = 0

let log2 x =
  let rec go k = if 1 lsl k >= x then k else go (k + 1) in
  go 0

let create config =
  if
    not
      (is_pow2 config.line_bytes && is_pow2 config.size_bytes
      && config.size_bytes >= config.line_bytes)
  then
    invalid_arg
      (Printf.sprintf
         "Icache.create: %d-byte cache of %d-byte lines (both must be powers of two, the \
          cache at least one line)"
         config.size_bytes config.line_bytes);
  let nsets = config.size_bytes / config.line_bytes in
  {
    lines = Array.make nsets (-1);
    line_shift = log2 config.line_bytes;
    tag_shift = log2 nsets;
    n_access = 0;
    n_miss = 0;
  }

let access t addr =
  let line_addr = addr lsr t.line_shift in
  let set = line_addr land (Array.length t.lines - 1) in
  let tag = line_addr lsr t.tag_shift in
  t.n_access <- t.n_access + 1;
  if Array.unsafe_get t.lines set = tag then true
  else begin
    t.n_miss <- t.n_miss + 1;
    Array.unsafe_set t.lines set tag;
    false
  end

let count_hits t n = t.n_access <- t.n_access + n

let resident t addr =
  let line_addr = addr lsr t.line_shift in
  Array.unsafe_get t.lines (line_addr land (Array.length t.lines - 1))
  = line_addr lsr t.tag_shift

let all_resident t addrs =
  let i = ref (Array.length addrs - 1) in
  while !i >= 0 && resident t (Array.unsafe_get addrs !i) do
    decr i
  done;
  !i < 0

let conflict_free t addrs =
  let sets = Array.length t.lines - 1 in
  let lines = Array.map (fun a -> a lsr t.line_shift) addrs in
  let ok = ref true in
  Array.iteri
    (fun i l ->
      for j = 0 to i - 1 do
        if lines.(j) <> l && lines.(j) land sets = l land sets then ok := false
      done)
    lines;
  !ok

let accesses t = t.n_access
let misses t = t.n_miss

let reset_stats t =
  t.n_access <- 0;
  t.n_miss <- 0
