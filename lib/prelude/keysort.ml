let sort_by (keys : int array) (perm : int array) =
  let m = Array.length perm in
  let src = ref perm and dst = ref (Array.make m 0) in
  let width = ref 1 in
  while !width < m do
    let a = !src and b = !dst in
    let lo = ref 0 in
    while !lo < m do
      let mid = min m (!lo + !width) and hi = min m (!lo + (2 * !width)) in
      let i = ref !lo and j = ref mid in
      for k = !lo to hi - 1 do
        (* Ties take the left run's position: the merge is stable. *)
        if !j >= hi || (!i < mid && keys.(a.(!i)) <= keys.(a.(!j))) then begin
          b.(k) <- a.(!i);
          incr i
        end
        else begin
          b.(k) <- a.(!j);
          incr j
        end
      done;
      lo := hi
    done;
    src := b;
    dst := a;
    width := 2 * !width
  done;
  if !src != perm then Array.blit !src 0 perm 0 m

let order keys =
  let perm = Array.init (Array.length keys) Fun.id in
  sort_by keys perm;
  perm
