(** Typed fault sites: the taxonomy of the injection campaign.

    A {e class} names a tamper mechanism; a {e site} is one concrete,
    seed-reproducible instance of it (an address and mask, an illegal
    edge, a fetch index). The campaign samples sites only from state
    the clean run actually consumed — a visited block, a taken fetch —
    so every trial exercises the detection path and an escape is a
    real escape, never a fault that landed in dead code.

    Classes and the SOFIA detection model:

    - [Insn_flip], [Mac_flip]: persistent single-bit flips in a visited
      block's instruction / stored-MAC words — the paper's tampered-code
      case. Multiplexor blocks restrict MAC flips to the shared M2 word
      and instruction flips to the shared slots, because a flip in the
      M1 copy of a path never taken is dead-word corruption (see below).
    - [Keystream]: a random 32-bit XOR mask on a consumed word — the
      observable effect of a corrupted CTR keystream, since plaintext =
      ciphertext ⊕ keystream.
    - [Edge_redirect]: a control transfer along an edge outside the
      static CFG — the paper's fine-grained CFI case, answered by the
      frontend without running the machine.
    - [Mux_swap]: swapping a multiplexor block's two independently
      encrypted M1 copies — each copy is bound to its edge's keystream,
      so either entry decrypts garbage.
    - [Fetch_transient]: a transient flip on one fetch of the 256-bit
      group — {e out of model} ({!in_model} is [false]): the paper's
      conclusion defers fetch-path glitches, and a flip landing in the
      unused M1 copy of a multiplexor block is invisible to the taken
      path's MAC check. The campaign reports its (high) detection rate
      but CI does not gate on it. *)

type clazz =
  | Insn_flip
  | Mac_flip
  | Keystream
  | Edge_redirect
  | Mux_swap
  | Fetch_transient

val all : clazz list

val in_model : clazz -> bool
(** [true] for the classes SOFIA guarantees to detect; the CI coverage
    gate requires a 100% detection rate exactly on these. *)

val applicable : clazz -> Sofia_transform.Backend_id.t -> bool
(** Whether the class has any fault site under the backend. [Mux_swap]
    is SOFIA-only: SCFP builds no multiplexor blocks (joins re-key the
    sponge instead), so the class is structurally inapplicable there —
    campaign cells record it as not-applicable, never as an escape. *)

val name : clazz -> string
(** Stable snake_case tag for JSON/CLI. *)

val of_name : string -> clazz option
val describe : clazz -> string

type site =
  | Word_xor of { address : int; mask : int }
      (** XOR [mask] into the encrypted text word at [address] *)
  | Word_swap of { a : int; b : int }  (** exchange two encrypted words *)
  | Redirect of { from_exit : int; target : int }
      (** ask the frontend to accept the edge [from_exit → target] *)
  | Transient of { fetch : int; bit : int }
      (** flip [bit] of the [fetch]-th (1-based) fetched block group *)

val apply : Sofia_transform.Image.t -> site -> Sofia_transform.Image.t
(** Materialise an image-tamper site ([Word_xor]/[Word_swap]) as a
    tampered copy; [Redirect]/[Transient] return the image unchanged
    (they are injected through the frontend query and the runner's
    fault hook respectively).
    @raise Invalid_argument if an address is outside the text. *)
