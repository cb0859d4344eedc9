let () =
  Alcotest.run "sofia"
    [
      ("util", Util_tests.suite);
      ("isa", Isa_tests.suite);
      ("asm", Asm_tests.suite);
      ("cfg", Cfg_tests.suite);
      ("crypto", Crypto_tests.suite);
      ("transform", Transform_tests.suite);
      ("verify", Verify_tests.suite);
      ("cpu", Cpu_tests.suite);
      ("attack", Attack_tests.suite);
      ("baseline", Baseline_tests.suite);
      ("hwmodel", Hwmodel_tests.suite);
      ("workloads", Workload_tests.suite);
      ("minic", Minic_tests.suite);
      ("minic-random", Minic_random_tests.suite);
      ("provision", Provision_tests.suite);
      ("integration", Integration_tests.suite);
      ("properties", Property_tests.suite);
      ("obs", Obs_tests.suite);
      ("kat", Kat_tests.suite);
      ("rectangle-diff", Rectangle_diff_tests.suite);
      ("sponge-diff", Sponge_diff_tests.suite);
      ("ks-cache", Ks_cache_tests.suite);
      ("fuzz", Fuzz_tests.suite);
      ("differential", Differential_tests.suite);
      ("service", Service_tests.suite);
      ("serve-smoke", Serve_smoke_tests.suite);
      ("fault", Fault_tests.suite);
      ("engine", Engine_tests.suite);
      ("backend", Backend_tests.suite);
      ("store-fs", Store_fs_tests.suite);
      ("fleet", Fleet_tests.suite);
      ("fleet-sim", Fleet_sim_tests.suite);
    ]
