(** Flat data memory with a memory-mapped output device.

    Bare-metal workloads write results to the MMIO region at
    [Sofia_asm.Program.mmio_base]:

    - word store at [mmio_base]      → appends a 32-bit output value;
    - word/byte store at [mmio_base + 4] → appends an output character.

    Loads from the MMIO region read 0. Accesses outside both the RAM
    and MMIO ranges, and unaligned word accesses, raise {!Bus_error} —
    the simulator's stand-in for a SPARC data-access exception. *)

exception Bus_error of int
(** Carries the offending address. *)

type t

val create : ?size_bytes:int -> unit -> t
(** A fresh, zeroed RAM covering [\[0, size_bytes)]; default 1 MiB.
    Zeroing and collecting 1 MiB costs a run about 120 µs, so the
    cores take their RAM from {!acquire}. *)

val acquire : size_bytes:int -> t
(** A zeroed RAM of [size_bytes] with no outputs: this domain's pooled
    RAM when the pool holds one of that size, else a fresh one. Taking
    it empties the domain's one-slot pool, so a run that starts while
    another run of the same domain holds the pooled RAM gets a fresh
    RAM of its own. The slot is per domain, not per thread: simulations
    on several systhreads of one domain would need a lock (the engine's
    workers are domains). *)

val release : t -> unit
(** Give a RAM back to this domain's pool: the pages any write or
    {!load_bytes} touched are zeroed and the outputs cleared, so the
    next {!acquire} reads nothing of this run. The caller must keep no
    reference to it: a core releases its RAM only when no [on_finish]
    callback saw it. *)

val size_bytes : t -> int

val load_bytes : t -> addr:int -> Bytes.t -> unit
(** Copy an initialised section (e.g. the data image) into RAM. *)

val read_range : t -> addr:int -> len:int -> Bytes.t
(** Copy of RAM [\[addr, addr+len)] — for post-run state comparison
    (e.g. the SOFIA-vs-vanilla differential tests).
    @raise Bus_error when the range leaves RAM. *)

val read32 : t -> int -> int
val write32 : t -> int -> int -> unit
val read8 : t -> int -> int
val write8 : t -> int -> int -> unit

val outputs : t -> int list
(** Words written to the output port, oldest first. *)

val output_text : t -> string
(** Characters written to the character port. *)

val clear_outputs : t -> unit
