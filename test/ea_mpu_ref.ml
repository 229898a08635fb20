(* The EA-MPU decision as the rule list states it: an address covered by
   no rule is open, otherwise some covering rule must grant the executing
   region the mode. [Ea_mpu] compiles the rules into a boundary table;
   this list scan is the reference it must equal. *)
open Ra_mcu

let covers r addr = addr >= r.Ea_mpu.data_base && addr < r.Ea_mpu.data_base + r.Ea_mpu.data_size

let granted who ~code =
  match who with
  | Ea_mpu.Anyone -> true
  | Ea_mpu.Code_in names -> List.mem code names
  | Ea_mpu.Nobody -> false

let permits r ~code = function
  | Ea_mpu.Read -> granted r.Ea_mpu.read_by ~code
  | Ea_mpu.Write -> granted r.Ea_mpu.write_by ~code

let check rules ~code ~addr mode =
  match List.filter (fun r -> covers r addr) rules with
  | [] -> true
  | covering -> List.exists (fun r -> permits r ~code mode) covering

(* the decision is constant between rule boundaries, so one sample per
   boundary inside the range stands for every byte *)
let check_range rules ~code ~addr ~len mode =
  if len <= 0 then invalid_arg "Ea_mpu.check_range: non-positive length";
  let last = addr + len - 1 in
  let boundaries =
    List.concat_map
      (fun r ->
        List.filter
          (fun p -> p > addr && p <= last)
          [ r.Ea_mpu.data_base; r.Ea_mpu.data_base + r.Ea_mpu.data_size ])
      rules
  in
  List.for_all (fun a -> check rules ~code ~addr:a mode) (addr :: boundaries)
