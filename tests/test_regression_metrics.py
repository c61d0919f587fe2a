"""Regression guard: headline metrics of the quick experiment.

Seeds are fixed, so these numbers are deterministic per code version;
the assertions use generous ranges so legitimate re-tuning passes while
silent behavioral regressions (lost optimizations, broken replay,
protocol drift) fail loudly.
"""

import hashlib

import numpy as np
import pytest

from repro.analysis import (
    dynamic_footprint_bytes,
    merge_sequence_stats,
    sequence_lengths,
    union_footprint_in_lines,
)
from repro.cache import CacheGeometry
from repro.sim import direct_mapped_misses, itlb_result
from repro.harness import quick_experiment
from repro.harness.figures import (
    L1I_64K,
    detailed_results,
    fig09_word_usage,
    fig10_word_reuse,
    fig11_lifetimes,
)
from repro.harness.store import save_trace
from repro.ir import baseline_layout, build_unit_call_graph
from repro.layout import Combo, SpikeOptimizer, color_layout, temporal_order
from repro.serve.cache import encode_layout


@pytest.fixture(scope="module")
def exp():
    experiment = quick_experiment()
    _ = experiment.profile
    _ = experiment.trace
    return experiment


def dm_misses(exp, combo, size_kb=32, line=128):
    geometry = CacheGeometry(size_kb * 1024, line, 1)
    return sum(
        direct_mapped_misses(s, c, geometry) for s, c in exp.streams(combo, scope="app")
    )


class TestHeadlineRegression:
    def test_footprint_scale(self, exp):
        footprint = dynamic_footprint_bytes(exp.profile)
        assert 15_000 < footprint < 80_000  # quick config: tens of KB

    def test_miss_reduction_holds(self, exp):
        base = dm_misses(exp, "base")
        optimized = dm_misses(exp, "all")
        assert optimized < 0.6 * base

    def test_chain_alone_helps(self, exp):
        base = dm_misses(exp, "base")
        chain = dm_misses(exp, "chain")
        assert chain < 0.8 * base

    def test_sequence_lengths_band(self, exp):
        base = merge_sequence_stats(
            [sequence_lengths(s, c) for s, c in exp.streams("base", scope="app")]
        )
        optimized = merge_sequence_stats(
            [sequence_lengths(s, c) for s, c in exp.streams("all", scope="app")]
        )
        assert 5.0 < base.mean_length < 11.0
        assert optimized.mean_length > 1.2 * base.mean_length

    def test_packing_improves(self, exp):
        base_lines = union_footprint_in_lines(exp.streams("base", scope="app"), 128)
        opt_lines = union_footprint_in_lines(exp.streams("all", scope="app"), 128)
        assert opt_lines < base_lines

    def test_itlb_improves(self, exp):
        base = itlb_result(exp.streams("base", scope="combined"), entries=16).misses
        optimized = itlb_result(exp.streams("all", scope="combined"), entries=16).misses
        assert optimized < base

    def test_kernel_fraction_band(self, exp):
        trace = exp.trace
        kernel = sum(
            int((cpu.blocks >= trace.kernel_offset).sum()) for cpu in trace.cpus
        )
        total = sum(cpu.num_blocks for cpu in trace.cpus)
        assert 0.02 < kernel / total < 0.30

    def test_lock_waits_occur(self, exp):
        """The 40-branch hot rows must produce real contention."""
        # The quick experiment shares an engine per run; re-derive from
        # a fresh system at the same scale.
        from repro.execution import OltpSystem
        from repro.workloads import TpcbConfig

        system = OltpSystem(
            exp.app, exp.kernel,
            tpcb_config=TpcbConfig(branches=2, accounts_per_branch=50),
        )
        system.run(transactions=60)
        assert system.engine.locks.waits > 0

    @pytest.mark.parametrize("combo", ["base", "porder", "chain",
                                       "chain+split", "chain+porder", "all",
                                       "split", "hotcold"])
    def test_every_combo_replayable(self, exp, combo):
        streams = exp.streams(combo, scope="app")
        for starts, counts in streams:
            assert (starts >= 0).all()
            assert (counts >= 0).all()
            assert int(counts.sum()) > 0


#: sha256 of every array of the quick experiment's ``trace.npz``.  The
#: trace is the input of every profile, layout and simulation, so any
#: change to the system model, the engine or the CFG walker that moves a
#: single block id, pid or data address shows up here.
TRACE_SHA256 = {
    "cpu0_blocks": "831ded13d0aa8f37005fbde41098049aca97fd83b4505806ae3504e5de1b639a",
    "cpu0_pids": "fc0cfeb5e46193b911a4ef74750689f0bf43f6a40e3eb30101a931885274f3a1",
    "cpu1_blocks": "ba0b99a1bace846adc4da610fc3f1b8fcaa016436092b37fdc618d95621515b8",
    "cpu1_pids": "501faee29e587b51634a0064902452f4d16a3999cb0a8e6d74128acf4a3f7d37",
    "cpu2_blocks": "f6587403e6481f1aef9bfabdc63baac221b4a21cee4f3d6cdd371722c3762d10",
    "cpu2_pids": "8e9bb1112ab171c1c23e897e951a2b9b9a39ffe244e74824c44b99ac5c705daf",
    "cpu3_blocks": "9e26cbc8ecbe330be1d9d35d2452c5902e5ca938ca3610df1eb90db73b54a109",
    "cpu3_pids": "9392fd21c8e2feef3719cfc4b6d7801201408e87a36717cb2ab78855feb4b046",
    "data0_addr": "cd14c9e69e108d5404ecdf4262e7b19806403f014d6a984597b21cfe475272d4",
    "data0_pos": "45ee600020189fdcaa799f4baf8f987d7bfebab5a30aadb906cfa0101af4750f",
    "data1_addr": "838d76160169e4f3a376db1babaaf80903de8869f762098fd325414b484547a7",
    "data1_pos": "bb72437b09840c4a1e31c188459d4e1f0495d8d99b17c605d6ece0e57874aea8",
    "data2_addr": "4f506e21b4e7a02868cc17ed335eb7f40a1457cf249b0250aaf9797d6925ec99",
    "data2_pos": "d68bad377e63515a96e8f3b6a66deafa806470c77d22032313a4922d5020a519",
    "data3_addr": "773156657fb6a0017ba8b4e27f1b8af5b499e730014f6ecdd94122e737caca02",
    "data3_pos": "c549073bfa715e95a3976b090f47aa0cf43b6a33b43a380e922b33868d44eaaa",
    "meta": "80c5eeb6122d98265ff7d811a5a35eb6a3c559dd10302dfcccbb129958718898",
}


class TestTracePin:
    def test_trace_arrays_pinned(self, exp, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(exp.trace, path)
        with np.load(path) as arrays:
            digests = {
                name: hashlib.sha256(np.ascontiguousarray(arrays[name]).tobytes()).hexdigest()
                for name in arrays.files
            }
        assert digests == TRACE_SHA256


#: The detailed 128KB/128B/4-way runs of Figs. 9-11 (CPU 0's app stream):
#: misses, accesses and interference counts per combo, then every table
#: row.  The tables come from the residencies that ``lru_pass``'s victims
#: delimit, so a kernel that evicts the wrong line moves them.
RESIDENCY_PIN = {
    "base": {
        "misses": 405, "accesses": 48999, "misses_app": 405, "misses_kernel": 0,
        "cold": {"application": 331, "kernel": 0},
        "counts": {"application": {"application": 74, "kernel": 0},
                   "kernel": {"application": 0, "kernel": 0}},
    },
    "all": {
        "misses": 218, "accesses": 47687, "misses_app": 218, "misses_kernel": 0,
        "cold": {"application": 218, "kernel": 0},
        "counts": {"application": {"application": 0, "kernel": 0},
                   "kernel": {"application": 0, "kernel": 0}},
    },
}
FIG09_ROWS = [
    [1, 2.47, 0.0], [2, 9.14, 0.46], [3, 2.47, 1.38], [4, 3.95, 0.0],
    [5, 3.21, 0.0], [6, 3.7, 0.46], [7, 2.96, 1.83], [8, 3.95, 0.92],
    [9, 1.73, 0.46], [10, 3.95, 0.92], [11, 3.7, 1.38], [12, 3.46, 0.0],
    [13, 1.98, 1.38], [14, 2.22, 2.29], [15, 3.95, 0.46], [16, 3.21, 0.46],
    [17, 2.72, 1.38], [18, 2.22, 0.92], [19, 1.98, 1.38], [20, 1.98, 1.38],
    [21, 1.48, 0.92], [22, 1.73, 0.46], [23, 1.73, 1.38], [24, 2.47, 0.46],
    [25, 0.99, 0.92], [26, 1.73, 0.46], [27, 0.25, 0.0], [28, 2.72, 0.92],
    [29, 1.23, 0.92], [30, 0.74, 0.46], [31, 0.49, 5.96], [32, 19.51, 69.72],
]
FIG10_ROWS = [
    [0, 49.36, 12.4], [1, 6.4, 7.91], [2, 3.9, 5.4], [3, 2.68, 4.16],
    [4, 2.29, 4.1], [5, 2.86, 5.48], [6, 1.56, 2.45], [7, 1.57, 2.85],
    [8, 0.89, 1.75], [9, 0.76, 1.3], [10, 1.2, 2.22], [11, 0.55, 1.16],
    [12, 0.73, 1.35], [13, 0.58, 1.06], [14, 0.34, 0.66], [15, 24.34, 45.74],
]
FIG11_ROWS = [
    [10, 4.2, 1.38], [11, 10.86, 0.0], [12, 4.2, 0.46], [13, 0.99, 2.29],
    [14, 0.0, 3.21], [15, 79.75, 92.66],
]


class TestResidencyPin:
    def test_figs_9_to_11_pinned(self, exp):
        results = {combo: detailed_results(exp, combo) for combo in RESIDENCY_PIN}
        for combo, expected in RESIDENCY_PIN.items():
            result = results[combo]
            assert {
                "misses": result.misses,
                "accesses": result.accesses,
                "misses_app": result.misses_app,
                "misses_kernel": result.misses_kernel,
                "cold": result.interference.cold,
                "counts": result.interference.counts,
            } == expected, combo
        base, opt = results["base"], results["all"]
        assert fig09_word_usage(base, opt).rows == FIG09_ROWS
        assert fig10_word_reuse(base, opt).rows == FIG10_ROWS
        assert fig11_lifetimes(base, opt).rows == FIG11_ROWS


#: sha256 of every combo's served layout document (``encode_layout``)
#: for the quick app and kernel under each profile source: layouts
#: must stay byte-identical whatever the ordering code does inside.
LAYOUT_SHA256 = {
    "app/measured/base":
        "d77ded449f8b0f6fee7e2937f2b20edf6bad95adeff4d1cf0f8388d195e7c385",
    "app/measured/porder":
        "109eef99249618cd013af0911023205830a764ded23b6368bf881282b3913bf8",
    "app/measured/chain":
        "41574bb350fb31be03cba17de0cbe7511938a626820d5173c915975d7245c2e7",
    "app/measured/split":
        "26055f6f3f52bdb0ee95c191ff68d286f076118e009a84c2034b61cc8988dacf",
    "app/measured/chain+split":
        "77a2d69ea5c6bd52f71833c32979ce091395283a3efe978470e17fa4900236d1",
    "app/measured/chain+porder":
        "1b3e774beff83b8a69eeaa7e5b31acf13f73e0f0e0590a0d736e2b015bfb180e",
    "app/measured/all":
        "7560c348dd0e56c092b4fd0a24fd02a4da4b184b9813ed3d87adb46cbe484bf1",
    "app/measured/hotcold":
        "43d47b6518288862540e9b9f366ed07cc2129f13cb4ffb6680aa5ba67ac1d919",
    "app/static/base":
        "d77ded449f8b0f6fee7e2937f2b20edf6bad95adeff4d1cf0f8388d195e7c385",
    "app/static/porder":
        "76de3474912ff1967de795895ffa6a512017a3c51d07410ada655d853e14f478",
    "app/static/chain":
        "4d31591fcf48b4b5a75885a71ef45a7ec377d318472665945389870025009735",
    "app/static/split":
        "26055f6f3f52bdb0ee95c191ff68d286f076118e009a84c2034b61cc8988dacf",
    "app/static/chain+split":
        "0d8eb96ef292951c2599262fab2b63df4c92f964dc52df6d8ab0bd6660cc8ac7",
    "app/static/chain+porder":
        "413250f08912073908db5c56536c10f67f772ed24b8e146c517f89bd6d57f21d",
    "app/static/all":
        "4d5f2b251e7481f6c0882df3ea09f380f5476aee0ce16a0aae17098ec80fe17a",
    "app/static/hotcold":
        "ad875a7c171f3c766690490c6c4da6a264109f51da010c29d8276641df9fe9ef",
    "app/hybrid/base":
        "d77ded449f8b0f6fee7e2937f2b20edf6bad95adeff4d1cf0f8388d195e7c385",
    "app/hybrid/porder":
        "bdb6f1f8c33783072c51420937ec3671fcf33d5428880226f78927de7a0b82e5",
    "app/hybrid/chain":
        "9eb36f8d39df0ca14258b3ea3281f9aaf0c08ba8e8eb5a53a44bd01690ca1da1",
    "app/hybrid/split":
        "26055f6f3f52bdb0ee95c191ff68d286f076118e009a84c2034b61cc8988dacf",
    "app/hybrid/chain+split":
        "aa8424001009ef756f763bb8cf91049939a5c64d11ae434cfa8743544e61f43b",
    "app/hybrid/chain+porder":
        "6e0cefb179a45f52219923d28cc253edb7907dce95f679e0e2d954e13b201b5f",
    "app/hybrid/all":
        "3182259a898707703252802022bf2baa62c1bd7f1bfd91dffccc00e77b4ae2d2",
    "app/hybrid/hotcold":
        "810dd8e9b449078cde2cb6365a66d5e9a43f0e5697e217fd7d6e7d13af147f16",
    "kernel/measured/base":
        "e5958a27b189898a4298070224ad741908b0dbe79eb52b6f6fd75fb96ff98d24",
    "kernel/measured/porder":
        "e9b694233efc87f1a0a3e6edbfed17366627ac238a366ec4158242c0ea70ef2b",
    "kernel/measured/chain":
        "dbba93b55f8cdf7622833fb9a3597d93aa2bc9d844deda62be2538b7e68c2536",
    "kernel/measured/split":
        "eaf3cb03ddd855a9ed01ebde242da66bfcbe38e0e78e7090a9bf684d29f5ca5c",
    "kernel/measured/chain+split":
        "1d46bb951379d14dab0fd3c09286aa1493541c937b21c729012b31ac928e3d5c",
    "kernel/measured/chain+porder":
        "7b81163ef21f7d14312b5f69481ef907d11ac195379cf8c3d896ea3b0e9594e5",
    "kernel/measured/all":
        "42f29b74b681eca4e863fd3028b33ef1e0eaf946bfe7cdf2b2b3e3e2e81bb5d3",
    "kernel/measured/hotcold":
        "01320b3cfff3e9bb7ebac08a15d77f334c3b32b00fd17405117c4b554fe5dcfd",
    "kernel/static/base":
        "e5958a27b189898a4298070224ad741908b0dbe79eb52b6f6fd75fb96ff98d24",
    "kernel/static/porder":
        "8f1aa49d8e2d1759f64d067e085bfc6e39a49838344630d21e9f5e99e028fd76",
    "kernel/static/chain":
        "b2db650c7ce68ef3a2e52a9cf0b7b671bde89d80f9e856d13e1213b4f9de26b4",
    "kernel/static/split":
        "eaf3cb03ddd855a9ed01ebde242da66bfcbe38e0e78e7090a9bf684d29f5ca5c",
    "kernel/static/chain+split":
        "61434e7250f6706d81a26c4739ceaf8ef6d004150497164dec271e95effafad9",
    "kernel/static/chain+porder":
        "e943199cbdfcf1ef5c63a0912644998c5fd168e0afbabfc4844c8abb09507f12",
    "kernel/static/all":
        "16e364df9b2dc9140e608b4a02bea741d7306fd2a743e08fb3c347884c1c5a52",
    "kernel/static/hotcold":
        "a8b07d96af404f58efc005d66ec7b2e1e9b9583b78cbf9e4ef28506b7fd21ef9",
    "kernel/hybrid/base":
        "e5958a27b189898a4298070224ad741908b0dbe79eb52b6f6fd75fb96ff98d24",
    "kernel/hybrid/porder":
        "c1c9dfe23e862560d9f21c15e38492ee53e33d9cf3bd65b1ef72dcf9218bb62f",
    "kernel/hybrid/chain":
        "41ad9213fb60bb4a70ae4c1adffa7e119725d49130e3e13e2fac0f59fcdf17af",
    "kernel/hybrid/split":
        "eaf3cb03ddd855a9ed01ebde242da66bfcbe38e0e78e7090a9bf684d29f5ca5c",
    "kernel/hybrid/chain+split":
        "823a08f9c5f5115db1af519cb81b4986c25a65094a00ffed39477d64f06b9a3c",
    "kernel/hybrid/chain+porder":
        "d5d940d594f159cdef3395e769776423fe0a9a181634d94a22bebf43e05a1a16",
    "kernel/hybrid/all":
        "be20f6ee5bdb1da5381bd9658501d931e886937beffbb1da31d120e996d5a191",
    "kernel/hybrid/hotcold":
        "00c383f34970daad071021c0f1a0910288505068a3726aa2811f0c6980b1daf0",
}

#: sha256 of ``encode_layout`` of the extension layouts (app, measured).
EXTENSION_LAYOUT_SHA256 = {
    "cfa": "24aed4ba45bfd2c56e2f75fd1beb901142160346243fe83d4286c18988fdcd72",
    "coloring": "e4a55d606a54bbe23d461afdf92ecda04db1efedfccfb7716a4d33733255bf9e",
    "temporal": "028159f4719640247a89519de9ae810f32a53dca2e0bc5cab76b289b6bba0e26",
}


class TestLayoutPin:
    def test_every_combo_layout_pinned(self, exp):
        digests = {}
        for side, program in (("app", exp.app), ("kernel", exp.kernel)):
            for source in ("measured", "static", "hybrid"):
                optimizer = SpikeOptimizer(
                    program.binary,
                    exp.profile_for(source, kernel=side == "kernel"),
                )
                for combo in Combo.names():
                    encoded = encode_layout(optimizer.layout(combo))
                    digests[f"{side}/{source}/{combo}"] = hashlib.sha256(
                        encoded
                    ).hexdigest()
        assert digests == LAYOUT_SHA256

    def test_extension_layouts_pinned(self, exp):
        """The CFA, coloring and temporal layouts, built as the
        ``ablation_cfa``, ``ext_coloring`` and ``ext_temporal`` figures
        build them."""
        binary, profile = exp.app.binary, exp.profile
        cfa, _ = exp.optimizer.cfa(
            cache_bytes=L1I_64K.l1i.size_bytes, reserved_fraction=0.25
        )
        procedures = baseline_layout(binary)
        graph = build_unit_call_graph(
            binary, procedures, profile.block_counts,
            edge_counts=profile.edge_counts or None,
        )
        coloring, _ = color_layout(
            binary, procedures, graph, profile.block_counts,
            cache_bytes=L1I_64K.l1i.size_bytes, line_bytes=L1I_64K.l1i.line_bytes,
        )
        temporal = temporal_order(
            binary, procedures,
            [exp.trace.app_block_stream(i) for i in range(len(exp.trace.cpus))],
            profile.block_counts, window=24,
        )
        digests = {
            name: hashlib.sha256(encode_layout(layout)).hexdigest()
            for name, layout in (
                ("cfa", cfa), ("coloring", coloring), ("temporal", temporal)
            )
        }
        assert digests == EXTENSION_LAYOUT_SHA256
