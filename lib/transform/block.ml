type kind = Exec | Mux

let words_per_block = 8
let size_bytes = 32

let insn_slots = function Exec -> 6 | Mux -> 5
let mac_words = function Exec -> 2 | Mux -> 3
let first_insn_offset = function Exec -> 8 | Mux -> 12
let exit_offset = 28

let port_offsets = function Exec -> [ 0 ] | Mux -> [ 4; 8 ]

let store_banned_slot kind slot =
  match kind with Exec -> slot = 0 || slot = 1 | Mux -> false

let reset_prev_pc = 0x3FFF_FFFC

let mac_key (keys : Sofia_crypto.Keys.t) = function
  | Exec -> keys.Sofia_crypto.Keys.k2
  | Mux -> keys.Sofia_crypto.Keys.k3

let macs keys kinds words =
  let tags = Array.make (Array.length kinds) 0L in
  let all = List.init (Array.length kinds) Fun.id in
  List.iter
    (fun kind ->
      let of_kind = Array.of_list (List.filter (fun i -> kinds.(i) = kind) all) in
      let t =
        Sofia_crypto.Cbc_mac.mac_words_batch (mac_key keys kind)
          (Array.map (fun i -> words.(i)) of_kind)
      in
      Array.iteri (fun j i -> tags.(i) <- t.(j)) of_kind)
    [ Exec; Mux ];
  tags

let pp_kind fmt = function
  | Exec -> Format.pp_print_string fmt "exec"
  | Mux -> Format.pp_print_string fmt "mux"
