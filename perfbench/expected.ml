(* Recorded outputs for the default seed (1) and the held-out seed (2)
   at full size. A change that alters what the program computes must
   update these on purpose; a failed check prints the new value.

   Seed 1 of paper_figs is the output of `rrmp_sim run figN -j 2`, and
   seed 1 of scale_1m is the row of `rrmp_sim run ext_scale_1m`. *)

(* digest of each figure's rendered report *)
let paper_figs =
  [
    ( 1,
      [
        ("fig3", "a6a21ea3b2361a383397ff48008cc607");
        ("fig4", "c50e1d14e419178821d36324dd807163");
        ("fig6", "c45f100519d4a350fda57101c19310bb");
        ("fig7", "e1baf652509761eb8e2c32231007911c");
        ("fig8", "1c2a9b090a200e6922bec0fa1ce66e86");
        ("fig9", "e04356ecaef3daefd43aa9d2a174e86d");
      ] );
    ( 2,
      [
        ("fig3", "5c99a14aeabfb5299695e3012fc559ce");
        ("fig4", "da096b00659efcc1310753930cd0c766");
        ("fig6", "21c6010c456de2b00260c73caab8cdf7");
        ("fig7", "dae4e350a4062262ea4200522d2b1880");
        ("fig8", "8dfa2073747956032eecee36faf99d43");
        ("fig9", "ca14f2c31362fc17fa8605c99bfdf35e");
      ] );
  ]

(* Scale_1m.render of the merged Sharded statistics *)
let scale_1m =
  [
    ( 1,
      "delivered=8388605 touches=1243858 recovered=418510 recovery_sum=0x1.0c0ae8p+22 \
       occupancy=0x1.7724c48p+28 peak=8 events=2185105 schedules=3023732 parcels=58725 \
       lt=49271" );
    ( 2,
      "delivered=8388602 touches=1248721 recovered=420031 recovery_sum=0x1.0d227p+22 \
       occupancy=0x1.774bda7p+28 peak=8 events=2193691 schedules=3035386 parcels=58719 \
       lt=49477" );
  ]

(* Wire_1k.render of the run's totals *)
let wire_1k =
  [
    ( 1,
      "sent=66986 dropped=3572 losses=3006 recovered=3006 unanswerable=172 promoted=23659 \
       events=87132" );
    ( 2,
      "sent=66806 dropped=3560 losses=3004 recovered=3004 unanswerable=152 promoted=23857 \
       events=87217" );
  ]
