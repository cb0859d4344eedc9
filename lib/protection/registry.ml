(* The two backends: SOFIA and SCFP, one constant record each. [find]
   is total over Backend_id by construction. *)

module Backend_id = Sofia_transform.Backend_id
module Transform = Sofia_transform.Transform
module Verify = Sofia_transform.Verify

let backend id : Backend.t =
  {
    Backend.id;
    protect = (fun ~keys ~nonce program -> Transform.protect ~backend:id ~keys ~nonce program);
    verify_against_source =
      (fun ~keys program image -> Verify.check_against_source ~keys program image);
  }

(* SOFIA: CTR-mode RECTANGLE keyed per control-flow edge, with
   interleaved CBC-MAC words and multiplexor blocks for convergent
   control flow (de Clercq et al., DATE 2016) *)
let sofia = backend Backend_id.Sofia

(* SCFP: one rolling sponge-duplex state per hart; decrypt-and-absorb
   fetch, clear tag words, patch table for legitimate edges, state
   divergence as the violation signal (Werner et al.) *)
let scfp = backend Backend_id.Scfp

let find = function Backend_id.Sofia -> sofia | Backend_id.Scfp -> scfp
