(* Slicing-by-4: [t0] is the classic byte table; [tk.(n)] is the CRC
   state after feeding byte [n] followed by [k] zero bytes, so four
   lookups advance the register a whole 32-bit word.  The tables are
   built at module initialisation — never lazily, because handler
   threads and pool domains digest concurrently and a [Lazy.t] forced
   from two domains at once raises [Lazy.Undefined]. *)
let t0 =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let next t = Array.map (fun c -> (c lsr 8) lxor t0.(c land 0xff)) t
let t1 = next t0
let t2 = next t1
let t3 = next t2

(* [update c b pos len] feeds the slice to the (pre-inverted) register
   [c]; callers check bounds. *)
let update c b pos len =
  let c = ref c and i = ref pos in
  let stop4 = pos + len - 3 in
  while !i < stop4 do
    let j = !i in
    let x =
      !c
      lxor (Char.code (Bytes.unsafe_get b j)
           lor (Char.code (Bytes.unsafe_get b (j + 1)) lsl 8)
           lor (Char.code (Bytes.unsafe_get b (j + 2)) lsl 16)
           lor (Char.code (Bytes.unsafe_get b (j + 3)) lsl 24))
    in
    c :=
      Array.unsafe_get t3 (x land 0xff)
      lxor Array.unsafe_get t2 ((x lsr 8) land 0xff)
      lxor Array.unsafe_get t1 ((x lsr 16) land 0xff)
      lxor Array.unsafe_get t0 (x lsr 24);
    i := j + 4
  done;
  for j = !i to pos + len - 1 do
    c :=
      Array.unsafe_get t0 ((!c lxor Char.code (Bytes.unsafe_get b j)) land 0xff)
      lxor (!c lsr 8)
  done;
  !c

let check name len_b pos len =
  if pos < 0 || len < 0 || pos + len > len_b then invalid_arg name

let digest_bytes b pos len =
  check "Store.Crc32.digest_bytes" (Bytes.length b) pos len;
  update 0xFFFFFFFF b pos len lxor 0xFFFFFFFF

let digest_sub s pos len =
  check "Store.Crc32.digest_sub" (String.length s) pos len;
  update 0xFFFFFFFF (Bytes.unsafe_of_string s) pos len lxor 0xFFFFFFFF

let digest_string s = digest_sub s 0 (String.length s)

let digest_sub_char s pos len ch =
  check "Store.Crc32.digest_sub_char" (String.length s) pos len;
  let c = update 0xFFFFFFFF (Bytes.unsafe_of_string s) pos len in
  Array.unsafe_get t0 ((c lxor Char.code ch) land 0xff) lxor (c lsr 8)
  lxor 0xFFFFFFFF
