(* Base-10^9 little-endian limbs in an int array.  The canonical form has no
   leading (most-significant) zero limb, and zero is the empty array, so
   structural equality is numeric equality.  All limb products fit in OCaml's
   63-bit native ints (10^9 * 10^9 < 2^62). *)

let base = 1_000_000_000
let base_digits = 9

type t = int array

let zero : t = [||]
let is_zero n = Array.length n = 0

let normalize (a : int array) : t =
  let k = ref (Array.length a) in
  while !k > 0 && a.(!k - 1) = 0 do
    decr k
  done;
  if !k = Array.length a then a else Array.sub a 0 !k

let of_int n =
  if n < 0 then invalid_arg "Bignat.of_int: negative";
  if n = 0 then zero
  else if n < base then [| n |]
  else if n < base * base then [| n mod base; n / base |]
  else [| n mod base; n / base mod base; n / base / base |]

let one = of_int 1
let two = of_int 2

let is_one n = Array.length n = 1 && n.(0) = 1

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b
let hash (n : t) = Hashtbl.hash n

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la <= 1 && lb <= 1 then
    (* single-limb operands: the sum fits well within an int *)
    of_int ((if la = 0 then 0 else a.(0)) + if lb = 0 then 0 else b.(0))
  else
  let lr = Stdlib.max la lb + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s =
      (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
    in
    r.(i) <- s mod base;
    carry := s / base
  done;
  normalize r

let succ n = add n one

(* Exact subtraction assuming a >= b. *)
let sub_unchecked (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  normalize r

let sub_exn a b =
  if compare a b < 0 then invalid_arg "Bignat.sub_exn: negative result";
  sub_unchecked a b

let monus a b = if compare a b <= 0 then zero else sub_unchecked a b

let mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else if la = 1 && lb = 1 then
    (* limb product < 10^18 < max_int *)
    of_int (a.(0) * b.(0))
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let cur = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- cur mod base;
        carry := cur / base
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let cur = r.(!k) + !carry in
        r.(!k) <- cur mod base;
        carry := cur / base;
        incr k
      done
    done;
    normalize r
  end

(* Halving works limb-wise because the base is even. *)
let half (a : t) : t =
  let la = Array.length a in
  if la = 0 then zero
  else begin
    let r = Array.make la 0 in
    let carry = ref 0 in
    for i = la - 1 downto 0 do
      let cur = a.(i) + (!carry * base) in
      r.(i) <- cur / 2;
      carry := cur land 1
    done;
    normalize r
  end

let double a = add a a
let is_even (n : t) = Array.length n = 0 || n.(0) land 1 = 0

(* Shift-and-subtract long division.  [bits_upper] over-estimates the binary
   length, which only costs a few extra loop iterations. *)
let bits_upper (n : t) = 1 + (30 * Array.length n)

let divmod (a : t) (b : t) : t * t =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else begin
    let shift = bits_upper a - bits_upper b + 31 in
    let d = ref b in
    for _ = 1 to shift do
      d := double !d
    done;
    let q = ref zero and r = ref a in
    for _ = 0 to shift do
      q := double !q;
      if compare !r !d >= 0 then begin
        r := sub_unchecked !r !d;
        q := succ !q
      end;
      d := half !d
    done;
    (!q, !r)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let pow b e =
  if e < 0 then invalid_arg "Bignat.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else
      let acc = if e land 1 = 1 then mul acc b else acc in
      go acc (mul b b) (e lsr 1)
  in
  go one b e

let pow2 k = pow two k

let to_int_opt (n : t) =
  match Array.length n with
  | 0 -> Some 0
  | 1 -> Some n.(0)
  | 2 -> Some (n.(0) + (base * n.(1)))
  | 3 ->
      let hi = n.(2) in
      (* max_int = 2^62 - 1 < 5 * base^2, so hi > 4 always overflows.  For
         hi <= 4 the sum stays below 5 * base^2 < 2^63: an overflow wraps
         to a negative int, never to a small positive one. *)
      if hi <= max_int / (base * base) then
        let v = n.(0) + (base * n.(1)) + (base * base * hi) in
        if v >= 0 then Some v else None
      else None
  | _ -> None

let to_int_exn n =
  match to_int_opt n with
  | Some i -> i
  | None -> failwith "Bignat.to_int_exn: overflow"

let hyper i n =
  if i < 0 then invalid_arg "Bignat.hyper: negative height";
  if n < 0 then invalid_arg "Bignat.hyper: negative argument";
  let rec go i =
    if i = 0 then of_int n
    else
      let e = go (i - 1) in
      match to_int_opt e with
      | Some e when e <= 10_000_000 -> pow2 e
      | _ -> invalid_arg "Bignat.hyper: tower too tall to materialize"
  in
  go i

let binomial n k =
  if k < 0 || k > n then zero
  else begin
    (* C(n,k) = prod_{i=1..k} (n-k+i)/i, dividing as we go keeps every
       intermediate value an exact integer. *)
    let k = Stdlib.min k (n - k) in
    let acc = ref one in
    for i = 1 to k do
      acc := div (mul !acc (of_int (n - k + i))) (of_int i)
    done;
    !acc
  end

let rec gcd a b = if is_zero b then a else gcd b (rem a b)

let lcm a b =
  if is_zero a || is_zero b then zero else mul (div a (gcd a b)) b

let factorial n =
  if n < 0 then invalid_arg "Bignat.factorial: negative";
  let acc = ref one in
  for i = 2 to n do
    acc := mul !acc (of_int i)
  done;
  !acc

let sum l = List.fold_left add zero l

let to_string (n : t) =
  let l = Array.length n in
  if l = 0 then "0"
  else begin
    let buf = Buffer.create (l * base_digits) in
    Buffer.add_string buf (string_of_int n.(l - 1));
    for i = l - 2 downto 0 do
      Buffer.add_string buf (Printf.sprintf "%09d" n.(i))
    done;
    Buffer.contents buf
  end

let of_string s =
  let s =
    String.concat "" (String.split_on_char '_' s)
  in
  let s =
    if String.length s > 0 && s.[0] = '+' then String.sub s 1 (String.length s - 1)
    else s
  in
  let len = String.length s in
  if len = 0 then invalid_arg "Bignat.of_string: empty";
  String.iter
    (fun c -> if c < '0' || c > '9' then invalid_arg "Bignat.of_string: not a digit")
    s;
  let nlimbs = (len + base_digits - 1) / base_digits in
  let r = Array.make nlimbs 0 in
  let pos = ref len in
  for i = 0 to nlimbs - 1 do
    let lo = Stdlib.max 0 (!pos - base_digits) in
    r.(i) <- int_of_string (String.sub s lo (!pos - lo));
    pos := lo
  done;
  normalize r

let to_float (n : t) =
  Array.to_list n
  |> List.rev
  |> List.fold_left (fun acc limb -> (acc *. float_of_int base) +. float_of_int limb) 0.

let digits n = String.length (to_string n)
let pp ppf n = Format.pp_print_string ppf (to_string n)
