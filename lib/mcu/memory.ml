exception Bus_fault of string

(* A region's backing store. [shared] cells alias bytes that another
   memory may also read (a prototype and its clones, a device and its
   rebooted successor); the first write through a shared cell copies the
   bytes, so no write is ever visible through another memory. *)
type cell = { mutable bytes : Bytes.t; mutable shared : bool }

type t = {
  regions : Region.t array;
  cells : cell array; (* cells.(i) backs regions.(i) *)
  mutable rom_sealed : bool;
}

let create regions =
  let rec check = function
    | [] -> ()
    | r :: rest ->
      List.iter
        (fun r' ->
          if Region.overlaps r r' then
            invalid_arg
              (Format.asprintf "Memory.create: %a overlaps %a" Region.pp r Region.pp r'))
        rest;
      check rest
  in
  check regions;
  let regions = Array.of_list regions in
  {
    regions;
    cells =
      Array.map (fun r -> { bytes = Bytes.make r.Region.size '\x00'; shared = false }) regions;
    rom_sealed = false;
  }

let non_volatile r =
  match r.Region.kind with Region.Rom | Region.Flash -> true | Region.Ram | Region.Mmio -> false

(* Share the non-volatile cells of [t] copy-on-write; [volatile] backs
   each RAM/MMIO region of the result. *)
let derive t ~volatile =
  {
    t with
    cells =
      Array.mapi
        (fun i r ->
          let c = t.cells.(i) in
          if non_volatile r then begin
            c.shared <- true;
            { bytes = c.bytes; shared = true }
          end
          else { bytes = volatile c; shared = false })
        t.regions;
  }

let clone t = derive t ~volatile:(fun c -> Bytes.copy c.bytes)
let power_cycle t = derive t ~volatile:(fun c -> Bytes.make (Bytes.length c.bytes) '\x00')

let regions t = Array.to_list t.regions

let region_named t name =
  match Array.find_opt (fun r -> r.Region.name = name) t.regions with
  | Some r -> r
  | None -> raise Not_found

let index_of t addr =
  let rec go i =
    if i = Array.length t.regions then -1
    else if Region.contains t.regions.(i) addr then i
    else go (i + 1)
  in
  go 0

let region_of_addr t addr =
  match index_of t addr with -1 -> None | i -> Some t.regions.(i)

let seal_rom t = t.rom_sealed <- true

let locate t addr =
  match index_of t addr with
  | -1 -> raise (Bus_fault (Printf.sprintf "no region at address 0x%06x" addr))
  | i -> i

(* the bytes of region [i], ready for a write: unshared first *)
let writable t i addr =
  let r = t.regions.(i) in
  if t.rom_sealed && r.Region.kind = Region.Rom then
    raise (Bus_fault (Printf.sprintf "ROM write at 0x%06x (%s)" addr r.Region.name));
  let c = t.cells.(i) in
  if c.shared then begin
    c.bytes <- Bytes.copy c.bytes;
    c.shared <- false
  end;
  c.bytes

let read_byte t addr =
  let i = locate t addr in
  Char.code (Bytes.get t.cells.(i).bytes (addr - t.regions.(i).Region.base))

let write_byte t addr v =
  let i = locate t addr in
  Bytes.set (writable t i addr) (addr - t.regions.(i).Region.base) (Char.chr (v land 0xff))

(* Bulk accessors locate each region once and blit whole runs instead of
   paying a region lookup per byte — attestation reads the prover's entire
   writable memory through here, which made this the simulator's real
   (wall-clock) bottleneck. Faults surface exactly as in the byte-wise
   versions: at the first unmapped/ROM byte, with prior runs applied. *)
let read_bytes t addr len =
  if len = 0 then ""
  else begin
    let buf = Bytes.create len in
    let rec fill off =
      if off < len then begin
        let i = locate t (addr + off) in
        let r = t.regions.(i) in
        let roff = addr + off - r.Region.base in
        let n = min (len - off) (r.Region.size - roff) in
        Bytes.blit t.cells.(i).bytes roff buf off n;
        fill (off + n)
      end
    in
    fill 0;
    Bytes.unsafe_to_string buf
  end

let write_bytes t addr s =
  let len = String.length s in
  let rec store off =
    if off < len then begin
      let i = locate t (addr + off) in
      let r = t.regions.(i) in
      let bytes = writable t i (addr + off) in
      let roff = addr + off - r.Region.base in
      let n = min (len - off) (r.Region.size - roff) in
      Bytes.blit_string s off bytes roff n;
      store (off + n)
    end
  in
  store 0

let read_u32 t addr =
  read_byte t addr
  lor (read_byte t (addr + 1) lsl 8)
  lor (read_byte t (addr + 2) lsl 16)
  lor (read_byte t (addr + 3) lsl 24)

let write_u32 t addr v =
  for i = 0 to 3 do
    write_byte t (addr + i) ((v lsr (8 * i)) land 0xff)
  done

let read_u64 t addr =
  let lo = Int64.of_int (read_u32 t addr) in
  let hi = Int64.of_int (read_u32 t (addr + 4)) in
  Int64.logor (Int64.logand lo 0xFFFFFFFFL) (Int64.shift_left hi 32)

let write_u64 t addr v =
  write_u32 t addr (Int64.to_int (Int64.logand v 0xFFFFFFFFL));
  write_u32 t (addr + 4) (Int64.to_int (Int64.logand (Int64.shift_right_logical v 32) 0xFFFFFFFFL))
