(** First-class protection backends.

    A backend packages what the rest of the stack needs from a
    protection scheme — transform a program into a protected image and
    independently verify that image against its source — behind one
    record, so the service, CLI and bench layers dispatch on
    {!Sofia_transform.Backend_id} instead of hard-wiring the SOFIA
    pipeline. See {!Registry} for the two backends. *)

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
