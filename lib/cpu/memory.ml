exception Bus_error of int

let mmio_base = Sofia_asm.Program.mmio_base
let mmio_limit = mmio_base + 0x100

(* Recorded outputs are capped so a runaway (e.g. tampered) program
   spinning on the output port cannot exhaust host memory; the total
   write count is still tracked. *)
let max_recorded_outputs = 65536

(* Every write into RAM marks its 4 KiB page, so a RAM handed back to
   the pool is zeroed page by page where a run wrote, not over its
   whole size. An aligned word never straddles a page. *)
let page_bits = 12
let page_bytes = 1 lsl page_bits

type t = {
  ram : Bytes.t;
  dirty : Bytes.t;  (* one byte per page, nonzero once the page was written *)
  mutable outputs_rev : int list;
  mutable outputs_count : int;
  chars : Buffer.t;
}

let create ?(size_bytes = 1 lsl 20) () =
  {
    ram = Bytes.make size_bytes '\000';
    dirty = Bytes.make ((size_bytes + page_bytes - 1) lsr page_bits) '\000';
    outputs_rev = [];
    outputs_count = 0;
    chars = Buffer.create 64;
  }

let size_bytes t = Bytes.length t.ram

let mark t addr = Bytes.unsafe_set t.dirty (addr lsr page_bits) '\001'

let read_range t ~addr ~len =
  if addr < 0 || len < 0 || addr + len > Bytes.length t.ram then raise (Bus_error addr);
  Bytes.sub t.ram addr len

let load_bytes t ~addr b =
  let len = Bytes.length b in
  if addr < 0 || addr + len > Bytes.length t.ram then raise (Bus_error addr);
  Bytes.blit b 0 t.ram addr len;
  if len > 0 then
    for p = addr lsr page_bits to (addr + len - 1) lsr page_bits do
      Bytes.unsafe_set t.dirty p '\001'
    done

let in_ram t addr len = addr >= 0 && addr + len <= Bytes.length t.ram
let in_mmio addr = addr >= mmio_base && addr < mmio_limit

let read32 t addr =
  if addr land 3 <> 0 then raise (Bus_error addr)
  else if in_mmio addr then 0
  else if in_ram t addr 4 then Int32.to_int (Bytes.get_int32_le t.ram addr) land 0xFFFF_FFFF
  else raise (Bus_error addr)

let write32 t addr v =
  if addr land 3 <> 0 then raise (Bus_error addr)
  else if addr = mmio_base then begin
    t.outputs_count <- t.outputs_count + 1;
    if t.outputs_count <= max_recorded_outputs then
      t.outputs_rev <- (v land 0xFFFF_FFFF) :: t.outputs_rev
  end
  else if addr = mmio_base + 4 then begin
    if Buffer.length t.chars < max_recorded_outputs then
      Buffer.add_char t.chars (Char.chr (v land 0xFF))
  end
  else if in_mmio addr then ()
  else if in_ram t addr 4 then begin
    Bytes.set_int32_le t.ram addr (Int32.of_int v);
    mark t addr
  end
  else raise (Bus_error addr)

let read8 t addr =
  if in_mmio addr then 0
  else if in_ram t addr 1 then Bytes.get_uint8 t.ram addr
  else raise (Bus_error addr)

let write8 t addr v =
  if addr = mmio_base + 4 then begin
    if Buffer.length t.chars < max_recorded_outputs then
      Buffer.add_char t.chars (Char.chr (v land 0xFF))
  end
  else if in_mmio addr then ()
  else if in_ram t addr 1 then begin
    Bytes.set_uint8 t.ram addr (v land 0xFF);
    mark t addr
  end
  else raise (Bus_error addr)

let outputs t = List.rev t.outputs_rev
let output_text t = Buffer.contents t.chars

let clear_outputs t =
  t.outputs_rev <- [];
  t.outputs_count <- 0;
  Buffer.clear t.chars

(* One pooled RAM per domain. [acquire] empties the slot, so a run
   that starts while its domain's RAM is out (a run nested in another)
   gets a fresh one; [release] zeroes the dirtied pages and refills
   the slot. *)
let pool : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let acquire ~size_bytes =
  match Domain.DLS.get pool with
  | Some t when Bytes.length t.ram = size_bytes ->
    Domain.DLS.set pool None;
    t
  | Some _ | None -> create ~size_bytes ()

let release t =
  let size = Bytes.length t.ram in
  for p = 0 to Bytes.length t.dirty - 1 do
    if Bytes.unsafe_get t.dirty p <> '\000' then begin
      let off = p lsl page_bits in
      Bytes.fill t.ram off (min page_bytes (size - off)) '\000';
      Bytes.unsafe_set t.dirty p '\000'
    end
  done;
  clear_outputs t;
  Domain.DLS.set pool (Some t)
