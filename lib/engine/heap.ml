(* Allocation-lean binary min-heap.

   Values and insertion sequence numbers live in two parallel arrays so
   a push allocates nothing beyond (amortized) array growth: there is no
   boxed per-entry record. Vacated slots are overwritten with [dummy] so
   the heap never pins popped payloads against the GC. *)

type 'a t = {
  compare_priority : 'a -> 'a -> int;
  initial_capacity : int;
  dummy : 'a;
  mutable data : 'a array;
  mutable seqs : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create ?(capacity = 64) ~dummy ~compare_priority () =
  if capacity <= 0 then invalid_arg "Heap.create: capacity must be positive";
  {
    compare_priority;
    initial_capacity = capacity;
    dummy;
    data = [||];
    seqs = [||];
    size = 0;
    next_seq = 0;
  }

let length t = t.size

let is_empty t = t.size = 0

let capacity t = Array.length t.data

(* seq breaks ties so equal priorities pop in insertion order *)
let less t i j =
  let c = t.compare_priority t.data.(i) t.data.(j) in
  if c <> 0 then c < 0 else t.seqs.(i) < t.seqs.(j)

let swap t i j =
  let v = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- v;
  let s = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- s

let ensure_room t extra =
  let needed = t.size + extra in
  if needed > Array.length t.data then begin
    let capacity = max t.initial_capacity (max needed (2 * Array.length t.data)) in
    let data = Array.make capacity t.dummy in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data;
    let seqs = Array.make capacity 0 in
    Array.blit t.seqs 0 seqs 0 t.size;
    t.seqs <- seqs
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < t.size && less t left !smallest then smallest := left;
  if right < t.size && less t right !smallest then smallest := right;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t value =
  ensure_room t 1;
  t.data.(t.size) <- value;
  t.seqs.(t.size) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

(* Floyd's bottom-up heap construction: O(n) over the whole array. *)
let heapify t =
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i
  done

let peek t = if t.size = 0 then None else Some t.data.(0)

let top t = if t.size = 0 then t.dummy else t.data.(0)

let remove_top t =
  if t.size > 0 then begin
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      t.seqs.(0) <- t.seqs.(t.size)
    end;
    (* release the vacated slot so the GC can reclaim the value *)
    t.data.(t.size) <- t.dummy;
    if t.size > 0 then sift_down t 0
  end

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    remove_top t;
    Some top
  end

let filter_in_place t keep =
  let kept = ref 0 in
  for i = 0 to t.size - 1 do
    if keep t.data.(i) then begin
      if !kept <> i then begin
        t.data.(!kept) <- t.data.(i);
        t.seqs.(!kept) <- t.seqs.(i)
      end;
      incr kept
    end
  done;
  for i = !kept to t.size - 1 do
    t.data.(i) <- t.dummy
  done;
  t.size <- !kept;
  heapify t

let clear t =
  (* shrink: drop the backing arrays entirely so a long-lived heap does
     not pin a high-water-mark's worth of dead values *)
  t.data <- [||];
  t.seqs <- [||];
  t.size <- 0;
  t.next_seq <- 0

let to_list_unordered t =
  let rec collect i acc = if i < 0 then acc else collect (i - 1) (t.data.(i) :: acc) in
  collect (t.size - 1) []
