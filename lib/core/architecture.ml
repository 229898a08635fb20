module Device = Ra_mcu.Device
module Timing = Ra_mcu.Timing
module Secure_boot = Ra_mcu.Secure_boot

type spec = {
  spec_name : string;
  clock_impl : Device.clock_impl;
  key_location : Device.key_location;
  scheme : Timing.auth_scheme option;
  policy : Freshness.policy;
  protect_key : bool;
  protect_counter : bool;
  protect_clock_msb : bool;
  protect_idt : bool;
  protect_irq_ctrl : bool;
  lock_mpu : bool;
  attest_app_flash : bool;
}

type prover = {
  spec : spec;
  device : Device.t;
  anchor : Code_attest.t;
  boot_outcome : Secure_boot.outcome;
}

let default_window_ms = 5000L

let unprotected =
  {
    spec_name = "unprotected";
    clock_impl = Device.Clock_none;
    key_location = Device.Key_in_rom;
    scheme = None;
    policy = Freshness.No_freshness;
    protect_key = false;
    protect_counter = false;
    protect_clock_msb = false;
    protect_idt = false;
    protect_irq_ctrl = false;
    lock_mpu = false;
    attest_app_flash = false;
  }

let smart_like =
  {
    unprotected with
    spec_name = "smart-like";
    scheme = Some Timing.Auth_hmac_sha1;
    policy = Freshness.Counter;
    protect_key = true;
    lock_mpu = true;
    (* static (hard-wired) rules: key only; counter state unprotected *)
  }

let trustlite_base =
  {
    spec_name = "trustlite-base";
    clock_impl = Device.Clock_hw { width = 64; divider_log2 = 0 };
    key_location = Device.Key_in_rom;
    scheme = Some Timing.Auth_hmac_sha1;
    policy = Freshness.Timestamp { window_ms = default_window_ms };
    protect_key = true;
    protect_counter = true;
    protect_clock_msb = false (* no SW clock share to protect *);
    protect_idt = false;
    protect_irq_ctrl = false;
    lock_mpu = true;
    attest_app_flash = false;
  }

let trustlite_sw_clock =
  {
    trustlite_base with
    spec_name = "trustlite-sw-clock";
    clock_impl = Device.Clock_sw { lsb_width = 24; divider_log2 = 0 };
    protect_clock_msb = true;
    protect_idt = true;
    protect_irq_ctrl = true;
  }

let tytan_like = { trustlite_base with spec_name = "tytan-like" }

let all_specs =
  [ unprotected; smart_like; trustlite_base; trustlite_sw_clock; tytan_like ]

let with_policy spec policy = { spec with policy }
let with_scheme spec scheme = { spec with scheme }
let with_name spec spec_name = { spec with spec_name }

let app_image =
  {
    Secure_boot.image_name = "benign-app-v1";
    code = String.concat "" (List.init 64 (fun i -> Printf.sprintf "APP%04d!" i));
  }

let app_image_digest = Secure_boot.digest_image app_image

let rules_of_spec spec device =
  List.concat
    [
      (if spec.protect_key then [ Device.rule_protect_key device ] else []);
      (if spec.protect_counter then [ Device.rule_protect_counter device ] else []);
      (if spec.protect_clock_msb then [ Device.rule_protect_clock_msb device ] else []);
      (if spec.protect_idt then [ Device.rule_protect_idt device ] else []);
      (if spec.protect_irq_ctrl then [ Device.rule_protect_irq_ctrl device ] else []);
    ]

let boot_device ~ram_seed spec device =
  Device.fill_ram_deterministic device ~seed:ram_seed;
  let boot_config =
    {
      Secure_boot.reference_digest = app_image_digest;
      protection_rules = rules_of_spec spec device;
      lock_mpu = spec.lock_mpu;
      enable_interrupts = true;
    }
  in
  let boot_outcome =
    Secure_boot.boot (Device.cpu device)
      (Some (Device.interrupt device))
      boot_config ~region:Device.region_app
      ~image_len:(String.length app_image.Secure_boot.code)
  in
  let anchor = Code_attest.install device ~scheme:spec.scheme ~policy:spec.policy () in
  { spec; device; anchor; boot_outcome }

let build ?(ram_seed = 42L) ?ram_size ~key_blob spec =
  let device =
    Device.create ?ram_size ~clock_impl:spec.clock_impl
      ~key_location:spec.key_location ~attest_app_flash:spec.attest_app_flash
      ~key:key_blob ()
  in
  Secure_boot.install_image (Device.memory device) ~region:Device.region_app app_image;
  boot_device ~ram_seed spec device

let clone prover =
  let device = Device.clone prover.device in
  {
    prover with
    device;
    anchor = Code_attest.install device ~scheme:prover.spec.scheme ~policy:prover.spec.policy ();
  }

let reboot ?(ram_seed = 42L) prover =
  boot_device ~ram_seed prover.spec (Device.power_cycle prover.device)
