type t = { width : int; words : int array }

let bits_per_word = Sys.int_size
let word_count width = (width + bits_per_word - 1) / bits_per_word

let create width =
  if width < 0 then invalid_arg "Bitset.create: negative width";
  { width; words = Array.make (word_count width) 0 }

(* All-ones pattern for the last word of a set of [width] bits. *)
let last_word_mask width =
  let r = width mod bits_per_word in
  if r = 0 then -1 else (1 lsl r) - 1

let full width =
  let t = create width in
  let nw = Array.length t.words in
  if nw > 0 then begin
    Array.fill t.words 0 nw (-1);
    t.words.(nw - 1) <- last_word_mask width
  end;
  t

let width t = t.width
let copy t = { width = t.width; words = Array.copy t.words }

let check t i op =
  if i < 0 || i >= t.width then
    invalid_arg (Printf.sprintf "Bitset.%s: index %d out of [0, %d)" op i t.width)

let mem t i =
  check t i "mem";
  (t.words.(i / bits_per_word) lsr (i mod bits_per_word)) land 1 = 1

let add t i =
  check t i "add";
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

let remove t i =
  check t i "remove";
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits_per_word))

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let fill t =
  let nw = Array.length t.words in
  if nw > 0 then begin
    Array.fill t.words 0 nw (-1);
    t.words.(nw - 1) <- last_word_mask t.width
  end

let is_empty t = Array.for_all (fun w -> w = 0) t.words
let equal a b = a.width = b.width && a.words = b.words

(* Per-16-bit-chunk popcount table; 63-bit words need four lookups. *)
let pop16 =
  Bytes.init 65536 (fun i ->
      let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
      Char.chr (go i 0))

let popcount x =
  Char.code (Bytes.unsafe_get pop16 (x land 0xffff))
  + Char.code (Bytes.unsafe_get pop16 ((x lsr 16) land 0xffff))
  + Char.code (Bytes.unsafe_get pop16 ((x lsr 32) land 0xffff))
  + Char.code (Bytes.unsafe_get pop16 (x lsr 48))

(* One odd multiply and one xor-shift per word, both bijections of the
   running state, so keys of the same length that differ in a single
   word never collide before the final sign-bit mask. *)
let hash_words seed a =
  let h = ref seed in
  for k = 0 to Array.length a - 1 do
    let x = (!h lxor Array.unsafe_get a k) * 0x2545F4914F6CDD1D in
    h := x lxor (x lsr 29)
  done;
  !h land max_int

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let iter f t =
  for wi = 0 to Array.length t.words - 1 do
    let base = wi * bits_per_word in
    let w = ref t.words.(wi) in
    while !w <> 0 do
      let b = !w land - !w in
      f (base + popcount (b - 1));
      w := !w land (!w - 1)
    done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list width l =
  let t = create width in
  List.iter (fun i -> add t i) l;
  t

let first t =
  let rec go wi =
    if wi >= Array.length t.words then None
    else
      let w = t.words.(wi) in
      if w = 0 then go (wi + 1)
      else Some ((wi * bits_per_word) + popcount ((w land -w) - 1))
  in
  go 0

let same_width a b op =
  if a.width <> b.width then invalid_arg ("Bitset." ^ op ^ ": width mismatch")

let inter_inplace dst src =
  same_width dst src "inter_inplace";
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) land src.words.(i)
  done

let union_inplace dst src =
  same_width dst src "union_inplace";
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) lor src.words.(i)
  done

let diff_inplace dst src =
  same_width dst src "diff_inplace";
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) land lnot src.words.(i)
  done

let disjoint a b =
  same_width a b "disjoint";
  let rec go i =
    i >= Array.length a.words || (a.words.(i) land b.words.(i) = 0 && go (i + 1))
  in
  go 0

let intersects a b = not (disjoint a b)

let subset a b =
  same_width a b "subset";
  let rec go i =
    i >= Array.length a.words
    || (a.words.(i) land lnot b.words.(i) = 0 && go (i + 1))
  in
  go 0

let hash t =
  let h = ref 0x811c9dc5 in
  Array.iter
    (fun w ->
      (* fold each word in two halves to keep the multiply cheap *)
      h := (!h lxor (w land 0x3fffffff)) * 0x01000193;
      h := (!h lxor (w lsr 30)) * 0x01000193)
    t.words;
  !h land max_int

let pp ppf t =
  Format.fprintf ppf "{@[<hov>";
  let sep = ref false in
  iter
    (fun i ->
      if !sep then Format.fprintf ppf ",@ ";
      sep := true;
      Format.pp_print_int ppf i)
    t;
  Format.fprintf ppf "@]}"
