(* Only the unterminated tail is ever buffered, and each read is scanned
   from its own first byte, so a byte is copied at most twice (into the
   tail, then into its line) however the stream was chunked. *)

type t = Buffer.t

let create () = Buffer.create 256

let rec newline chunk i n =
  if i >= n || Bytes.get chunk i = '\n' then i else newline chunk (i + 1) n

let feed t chunk n =
  let rec scan start acc =
    let i = newline chunk start n in
    if i >= n then begin
      Buffer.add_subbytes t chunk start (n - start);
      List.rev acc
    end
    else begin
      let line =
        if Buffer.length t = 0 then Bytes.sub_string chunk start (i - start)
        else begin
          Buffer.add_subbytes t chunk start (i - start);
          let l = Buffer.contents t in
          Buffer.clear t;
          l
        end
      in
      scan (i + 1) (line :: acc)
    end
  in
  scan 0 []

let pending t = Buffer.length t

let take_rest t =
  let s = Buffer.contents t in
  Buffer.clear t;
  s

let clear = Buffer.clear

let flush buf fd =
  let s = Buffer.contents buf in
  let len = String.length s in
  let rec push off =
    if off >= len then off
    else
      match Unix.write_substring fd s off (len - off) with
      | n -> push (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> push off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> off
  in
  Buffer.clear buf;
  match push 0 with
  | off ->
    Buffer.add_substring buf s off (len - off);
    true
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) -> false
