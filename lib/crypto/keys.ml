type t = { k1 : Rectangle.key; k2 : Rectangle.key; k3 : Rectangle.key }

let generate ~seed =
  let rng = Sofia_util.Prng.create ~seed in
  let k1 = Rectangle.random_key rng in
  let k2 = Rectangle.random_key rng in
  let k3 = Rectangle.random_key rng in
  { k1; k2; k3 }

let fingerprint t =
  Printf.sprintf "%s-%s-%s" (Rectangle.key_fingerprint t.k1) (Rectangle.key_fingerprint t.k2)
    (Rectangle.key_fingerprint t.k3)
