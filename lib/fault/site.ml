module Image = Sofia_transform.Image
module Block = Sofia_transform.Block

type clazz =
  | Insn_flip
  | Mac_flip
  | Keystream
  | Edge_redirect
  | Mux_swap
  | Fetch_transient

let all = [ Insn_flip; Mac_flip; Keystream; Edge_redirect; Mux_swap; Fetch_transient ]

(* The paper's detection guarantee (any tampered word an execution
   actually consumes, any CFG edge outside the static graph) covers the
   first five classes. Transient fetch-path glitches are the threat the
   paper's conclusion explicitly defers: a flip landing in a
   multiplexor block's *unused* M1 copy is never MAC-checked by the
   taken path, so detection is expected-high but not guaranteed. *)
let in_model = function
  | Insn_flip | Mac_flip | Keystream | Edge_redirect | Mux_swap -> true
  | Fetch_transient -> false

(* Whether a class has any site to sample under a backend. SCFP builds
   no multiplexor blocks — every join re-keys the sponge instead of
   funnelling through a mux tree — so [Mux_swap] is structurally
   inapplicable there: reported as not-applicable, never as a skip and
   never as an escape. *)
let applicable clazz (backend : Sofia_transform.Backend_id.t) =
  match (clazz, backend) with
  | Mux_swap, Sofia_transform.Backend_id.Scfp -> false
  | _ -> true

let name = function
  | Insn_flip -> "insn_flip"
  | Mac_flip -> "mac_flip"
  | Keystream -> "keystream"
  | Edge_redirect -> "edge_redirect"
  | Mux_swap -> "mux_swap"
  | Fetch_transient -> "fetch_transient"

let of_name = function
  | "insn_flip" -> Some Insn_flip
  | "mac_flip" -> Some Mac_flip
  | "keystream" -> Some Keystream
  | "edge_redirect" -> Some Edge_redirect
  | "mux_swap" -> Some Mux_swap
  | "fetch_transient" -> Some Fetch_transient
  | _ -> None

let describe = function
  | Insn_flip -> "single-bit flip in a visited block's instruction word"
  | Mac_flip -> "single-bit flip in a visited block's stored MAC word"
  | Keystream -> "random 32-bit XOR mask on a consumed word (corrupted keystream)"
  | Edge_redirect -> "control transfer along an edge outside the static CFG"
  | Mux_swap -> "swap of a multiplexor block's two encrypted M1 copies"
  | Fetch_transient -> "transient bit flip on one fetch of the 256-bit block group"

type site =
  | Word_xor of { address : int; mask : int }
  | Word_swap of { a : int; b : int }
  | Redirect of { from_exit : int; target : int }
  | Transient of { fetch : int; bit : int }

(* Materialise an image-tamper site. [Redirect]/[Transient] leave the
   stored image untouched — the campaign injects them through the
   frontend query / the runner's fault hook instead. *)
let apply image = function
  | Word_xor { address; mask } -> (
    match Image.fetch image address with
    | Some w -> Image.with_tampered_word image ~address ~value:(w lxor mask land 0xFFFFFFFF)
    | None -> invalid_arg "Site.apply: address outside text")
  | Word_swap { a; b } -> (
    match (Image.fetch image a, Image.fetch image b) with
    | Some wa, Some wb ->
      Image.with_tampered_word
        (Image.with_tampered_word image ~address:a ~value:wb)
        ~address:b ~value:wa
    | _ -> invalid_arg "Site.apply: swap address outside text")
  | Redirect _ | Transient _ -> image
