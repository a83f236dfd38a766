let is_pattern s = String.exists (fun c -> c = '*' || c = '?') s

(* Iterative glob with backtracking on the last '*': classic two-pointer
   algorithm, linear in practice and immune to pathological recursion. *)
let matches ~pattern s =
  let plen = String.length pattern and slen = String.length s in
  let rec go p i star_p star_i =
    if i >= slen then
      (* Consume trailing '*'s in the pattern. *)
      let rec only_stars p =
        if p >= plen then true
        else if pattern.[p] = '*' then only_stars (p + 1)
        else false
      in
      only_stars p
    else if p < plen && pattern.[p] = '*' then go (p + 1) i (p + 1) i
    else if p < plen && (pattern.[p] = '?' || pattern.[p] = s.[i])
    then go (p + 1) (i + 1) star_p star_i
    else if star_p >= 0 then go star_p (star_i + 1) star_p (star_i + 1)
    else false
  in
  go 0 0 (-1) (-1)
