open Sofia_util

let valid_address a = a >= 0 && a land 3 = 0 && a < 1 lsl 30

let widx name a =
  if not (valid_address a) then
    invalid_arg (Printf.sprintf "Ctr.counter: bad %s address 0x%x" name a);
  a / 4

let check_nonce nonce =
  if nonce < 0 || nonce > 0xFF then invalid_arg "Ctr.counter: nonce must be 8-bit"

let counter ~nonce ~prev_pc ~pc =
  check_nonce nonce;
  let p = widx "prev_pc" prev_pc and c = widx "pc" pc in
  Int64.logor
    (Int64.shift_left (Int64.of_int nonce) 56)
    (Int64.logor (Int64.shift_left (Int64.of_int p) 28) (Int64.of_int c))

module Cache = struct
  type t = {
    (* direct-mapped, hardware-style: one slot per index, overwrite on
       collision. The 64-bit edge identity {ω ‖ prevPC/4 ‖ PC/4} does
       not fit one tagged OCaml int, so it is split over two parallel
       tag arrays; [tag2 = -1] marks an empty slot. *)
    tag1 : int array;  (* ω(8) ‖ PC/4 (28) *)
    tag2 : int array;  (* prevPC/4 (28) *)
    data : int array;  (* cached 32-bit keystream word *)
    mask : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create ?(slots = 1024) () =
    if slots <= 0 then invalid_arg "Ctr.Cache.create: slots must be positive";
    let n = ref 1 in
    while !n < slots do
      n := !n * 2
    done;
    let n = !n in
    {
      tag1 = Array.make n 0;
      tag2 = Array.make n (-1);
      data = Array.make n 0;
      mask = n - 1;
      hits = 0;
      misses = 0;
      evictions = 0;
    }

  let slots t = Array.length t.data
  let hits t = t.hits
  let misses t = t.misses
  let evictions t = t.evictions

  let reset t =
    Array.fill t.tag1 0 (Array.length t.tag1) 0;
    Array.fill t.tag2 0 (Array.length t.tag2) (-1);
    Array.fill t.data 0 (Array.length t.data) 0;
    t.hits <- 0;
    t.misses <- 0;
    t.evictions <- 0

  let[@inline] index t tag1 tag2 = ((tag1 * 0x9E3779B1) lxor (tag2 * 0x85EBCA77)) land t.mask
end

let[@inline] generate ?probe key ctr =
  (match probe with Some f -> f () | None -> ());
  Int64.to_int (Int64.logand (Rectangle.encrypt key ctr) 0xFFFF_FFFFL)

let keystream32 ?probe ?cache key ~nonce ~prev_pc ~pc =
  match cache with
  | None -> generate ?probe key (counter ~nonce ~prev_pc ~pc)
  | Some c ->
    check_nonce nonce;
    let p = widx "prev_pc" prev_pc and w = widx "pc" pc in
    let tag1 = (nonce lsl 28) lor w and tag2 = p in
    let i = Cache.index c tag1 tag2 in
    if c.Cache.tag1.(i) = tag1 && c.Cache.tag2.(i) = tag2 then begin
      c.Cache.hits <- c.Cache.hits + 1;
      c.Cache.data.(i)
    end
    else begin
      c.Cache.misses <- c.Cache.misses + 1;
      if c.Cache.tag2.(i) >= 0 then c.Cache.evictions <- c.Cache.evictions + 1;
      let ks =
        generate ?probe key
          (Int64.logor
             (Int64.shift_left (Int64.of_int nonce) 56)
             (Int64.logor (Int64.shift_left (Int64.of_int p) 28) (Int64.of_int w)))
      in
      c.Cache.tag1.(i) <- tag1;
      c.Cache.tag2.(i) <- tag2;
      c.Cache.data.(i) <- ks;
      ks
    end

let crypt_word ?probe ?cache key ~nonce ~prev_pc ~pc w =
  Word.u32 (w lxor keystream32 ?probe ?cache key ~nonce ~prev_pc ~pc)

(* Three counters per pass, one to a lane. The counter's rows, from
   I = ω ‖ p ‖ c with 28-bit word indices p and c: row 0 is c's low
   16 bits, row 1 c's top 12 under p's low 4, row 2 p's bits 4..19,
   row 3 p's top 8 under ω. *)
let keystream_words key ~nonce ~prev_pcs ~pc =
  let n = Array.length prev_pcs in
  (* every word's counter is checked before any is derived; no word,
     no check *)
  if n > 0 then begin
    check_nonce nonce;
    ignore (widx "pc" pc);
    ignore (widx "pc" (pc + (4 * (n - 1))))
  end;
  Array.iter (fun p -> ignore (widx "prev_pc" p)) prev_pcs;
  let c0 = pc / 4 in
  let ks = Array.make n 0 and st = Array.make 4 0 in
  let i = ref 0 in
  while !i < n do
    let lanes = if n - !i < Rectangle.lanes then n - !i else Rectangle.lanes in
    for r = 0 to 3 do
      st.(r) <- 0
    done;
    for j = 0 to lanes - 1 do
      let p = prev_pcs.(!i + j) / 4 and c = c0 + !i + j and sh = 16 * j in
      st.(0) <- st.(0) lor ((c land 0xFFFF) lsl sh);
      st.(1) <- st.(1) lor (((c lsr 16) lor ((p land 0xF) lsl 12)) lsl sh);
      st.(2) <- st.(2) lor (((p lsr 4) land 0xFFFF) lsl sh);
      st.(3) <- st.(3) lor (((p lsr 20) lor (nonce lsl 8)) lsl sh)
    done;
    Rectangle.encrypt_lanes key st;
    for j = 0 to lanes - 1 do
      let sh = 16 * j in
      ks.(!i + j) <- ((st.(0) lsr sh) land 0xFFFF) lor (((st.(1) lsr sh) land 0xFFFF) lsl 16)
    done;
    i := !i + lanes
  done;
  ks
