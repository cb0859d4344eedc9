(* The first-class protection-backend interface.

   Without it the SOFIA pipeline would be hard-wired through the stack:
   transform, verifier and tooling would all assume CTR + CBC-MAC blocks.
   This record abstracts the two capabilities every backend must
   provide — protect a program into an image and independently verify
   that image against its source — so the service and CLI layers can
   be written once against the interface and dispatched by
   {!Sofia_transform.Backend_id}.

   The execution engines themselves dispatch on the image's backend tag
   inside [Sofia_cpu.Sofia_runner] (the per-edge memo and the compiled
   cache sit below this interface). *)

type t = {
  id : Sofia_transform.Backend_id.t;
  protect :
    keys:Sofia_crypto.Keys.t ->
    nonce:int ->
    Sofia_asm.Program.t ->
    (Sofia_transform.Image.t, Sofia_transform.Layout.error) result;
  verify_against_source :
    keys:Sofia_crypto.Keys.t ->
    Sofia_asm.Program.t ->
    Sofia_transform.Image.t ->
    Sofia_transform.Verify.issue list;
}
