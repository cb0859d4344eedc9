(** The protection backends: SOFIA (the previously hard-wired
    pipeline) and SCFP. {!find} is total over
    {!Sofia_transform.Backend_id}. *)

val find : Sofia_transform.Backend_id.t -> Backend.t
