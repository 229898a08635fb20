exception Bus_fault of string

(* What caching readers see of a region (see memory.mli). *)
type cell = { mutable view : string; mutable gen : int }

(* A region's backing store. [shared] stores alias bytes that another
   memory may also read (a prototype and its clones, a device and its
   rebooted successor); the first write through a shared store copies
   the bytes, so no write is ever visible through another memory.
   [cell.view] is always [bytes] as a string, and [cell.gen] is bumped
   in [writable], the only place bytes change. *)
type store = { mutable bytes : Bytes.t; mutable shared : bool; cell : cell }

let store bytes ~shared ~gen =
  { bytes; shared; cell = { view = Bytes.unsafe_to_string bytes; gen } }

type t = {
  regions : Region.t array;
  stores : store array; (* stores.(i) backs regions.(i) *)
  mutable rom_sealed : bool;
  mutable last : int; (* the region the last lookup hit *)
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
    stores =
      Array.map
        (fun r -> store (Bytes.make r.Region.size '\x00') ~shared:false ~gen:0)
        regions;
    rom_sealed = false;
    last = 0;
  }

let non_volatile r =
  match r.Region.kind with Region.Rom | Region.Flash -> true | Region.Ram | Region.Mmio -> false

(* Share the non-volatile stores of [t] copy-on-write; [volatile] backs
   each RAM/MMIO region of the result. *)
let derive t ~volatile =
  {
    t with
    stores =
      Array.mapi
        (fun i r ->
          let c = t.stores.(i) in
          if non_volatile r then begin
            c.shared <- true;
            store c.bytes ~shared:true ~gen:c.cell.gen
          end
          else store (volatile c) ~shared:false ~gen:0)
        t.regions;
  }

let clone t = derive t ~volatile:(fun c -> Bytes.copy c.bytes)
let power_cycle t = derive t ~volatile:(fun c -> Bytes.make (Bytes.length c.bytes) '\x00')

let regions t = Array.to_list t.regions

let region_named t name =
  match Array.find_opt (fun r -> r.Region.name = name) t.regions with
  | Some r -> r
  | None -> raise Not_found

(* [Region.contains], spelled out: it runs on every access, and calls
   across modules are not inlined in every build *)
let inside (r : Region.t) addr = addr >= r.base && addr < r.base + r.size

let rec scan t addr i =
  if i = Array.length t.regions then -1
  else if inside t.regions.(i) addr then begin
    t.last <- i;
    i
  end
  else scan t addr (i + 1)

(* Accesses cluster (the PC stays in one region, a MAC sweeps another),
   so the last hit is tried before the scan. *)
let index_of t addr =
  let last = t.last in
  if last < Array.length t.regions && inside t.regions.(last) addr then last
  else scan t addr 0

let region t i = t.regions.(i)
let cell t i = t.stores.(i).cell

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
  let c = t.stores.(i) in
  if c.shared then begin
    c.bytes <- Bytes.copy c.bytes;
    c.cell.view <- Bytes.unsafe_to_string c.bytes;
    c.shared <- false
  end;
  c.cell.gen <- c.cell.gen + 1;
  c.bytes

let read_byte t addr =
  let i = locate t addr in
  Char.code (Bytes.get t.stores.(i).bytes (addr - t.regions.(i).Region.base))

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
        Bytes.blit t.stores.(i).bytes roff buf off n;
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

(* The word accessors locate the region once when all four bytes lie in
   it; a word straddling a region end (or touching unmapped space) takes
   the byte-wise path, which faults and partially writes exactly as four
   single-byte accesses would. *)
let read_u32_bytewise t addr =
  read_byte t addr
  lor (read_byte t (addr + 1) lsl 8)
  lor (read_byte t (addr + 2) lsl 16)
  lor (read_byte t (addr + 3) lsl 24)

let read_u32 t addr =
  let i = index_of t addr in
  if i >= 0 && inside t.regions.(i) (addr + 3) then begin
    let b = t.stores.(i).bytes and off = addr - t.regions.(i).Region.base in
    Bytes.get_uint16_le b off lor (Bytes.get_uint16_le b (off + 2) lsl 16)
  end
  else read_u32_bytewise t addr

let write_u32 t addr v =
  let i = index_of t addr in
  if i >= 0 && inside t.regions.(i) (addr + 3) then begin
    let b = writable t i addr and off = addr - t.regions.(i).Region.base in
    Bytes.set_uint16_le b off (v land 0xffff);
    Bytes.set_uint16_le b (off + 2) ((v lsr 16) land 0xffff)
  end
  else
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
