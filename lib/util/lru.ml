(* A hash table over a doubly linked recency list: the table finds a
   key's node, the list orders the nodes from most to least recently
   used, so find, add, touch and evict are all O(1). The key is held
   once, by the node; the table's binding and the node share it. *)

type ('k, 'v) node =
  | Nil
  | Node of {
      key : 'k;
      value : 'v;
      mutable newer : ('k, 'v) node;
      mutable older : ('k, 'v) node;
    }

type ('k, 'v) t = {
  cap : int;
  tbl : ('k, ('k, 'v) node) Hashtbl.t;
  mutable newest : ('k, 'v) node;
  mutable oldest : ('k, 'v) node;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create cap =
  if cap < 1 then invalid_arg "Lru.create: capacity must be at least 1";
  { cap; tbl = Hashtbl.create (min cap 1024); newest = Nil; oldest = Nil; hits = 0;
    misses = 0; evictions = 0 }

let unlink t = function
  | Nil -> ()
  | Node r ->
    (match r.newer with Nil -> t.newest <- r.older | Node n -> n.older <- r.older);
    (match r.older with Nil -> t.oldest <- r.newer | Node o -> o.newer <- r.newer);
    r.newer <- Nil;
    r.older <- Nil

let push_newest t node =
  match node with
  | Nil -> ()
  | Node r ->
    r.older <- t.newest;
    (match t.newest with Nil -> t.oldest <- node | Node n -> n.newer <- node);
    t.newest <- node

let touch t node =
  if node != t.newest then begin
    unlink t node;
    push_newest t node
  end

let find t k =
  match Hashtbl.find_opt t.tbl k with
  | Some (Node r as node) ->
    t.hits <- t.hits + 1;
    touch t node;
    Some r.value
  | Some Nil | None ->
    t.misses <- t.misses + 1;
    None

let add t k v =
  match Hashtbl.find_opt t.tbl k with
  | Some (Node r as node) ->
    touch t node;
    r.value
  | Some Nil | None ->
    (if Hashtbl.length t.tbl >= t.cap then
       match t.oldest with
       | Nil -> ()
       | Node r as victim ->
         unlink t victim;
         Hashtbl.remove t.tbl r.key;
         t.evictions <- t.evictions + 1);
    let node = Node { key = k; value = v; newer = Nil; older = Nil } in
    Hashtbl.replace t.tbl k node;
    push_newest t node;
    v

let to_list t =
  let rec walk acc = function
    | Nil -> List.rev acc
    | Node r -> walk ((r.key, r.value) :: acc) r.older
  in
  walk [] t.newest

let length t = Hashtbl.length t.tbl
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
