exception Bus_error of int

let mmio_base = Sofia_asm.Program.mmio_base
let mmio_limit = mmio_base + 0x100

(* Recorded outputs are capped so a runaway (e.g. tampered) program
   spinning on the output port cannot exhaust host memory; the total
   write count is still tracked. *)
let max_recorded_outputs = 65536

type t = {
  ram : Bytes.t;
  mutable outputs_rev : int list;
  mutable outputs_count : int;
  chars : Buffer.t;
}

let create ?(size_bytes = 1 lsl 20) () =
  { ram = Bytes.make size_bytes '\000'; outputs_rev = []; outputs_count = 0; chars = Buffer.create 64 }

let size_bytes t = Bytes.length t.ram

let read_range t ~addr ~len =
  if addr < 0 || len < 0 || addr + len > Bytes.length t.ram then raise (Bus_error addr);
  Bytes.sub t.ram addr len

let load_bytes t ~addr b =
  if addr < 0 || addr + Bytes.length b > Bytes.length t.ram then raise (Bus_error addr);
  Bytes.blit b 0 t.ram addr (Bytes.length b)

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
  else if in_ram t addr 4 then Bytes.set_int32_le t.ram addr (Int32.of_int v)
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
  else if in_ram t addr 1 then Bytes.set_uint8 t.ram addr (v land 0xFF)
  else raise (Bus_error addr)

let outputs t = List.rev t.outputs_rev
let output_text t = Buffer.contents t.chars

let clear_outputs t =
  t.outputs_rev <- [];
  t.outputs_count <- 0;
  Buffer.clear t.chars
