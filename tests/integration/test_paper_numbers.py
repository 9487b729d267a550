"""Numeric regression pins for the paper's figures and tables.

``test_paper_claims.py`` checks the qualitative claims (a trend, a
band); this file pins the numbers behind ``fig6_energy_delay``,
``table2_encoding``, ``fig7_montecarlo`` / ``fig7_knn_degradation``,
``ablation_variation`` and ``fig8a`` / ``fig8bc`` at reduced fixed
sizes, computed through the same ``repro`` functions the benches call.
Accuracies, counts and winners are exact; floats are pinned at
``rel=1e-12`` — the device model is deterministic under a seed, so any
drift means the physics a search sees changed, not noise.

The pins were generated from the code they guard and are never
regenerated alongside a change to it: a refactor of the device state
must reproduce them unmodified.
"""

import dataclasses

import numpy as np
import pytest

from repro.apps.datasets import make_dataset, make_mnist, quantize_features
from repro.apps.hdc.model import HDCClassifier
from repro.arch.energy import EnergyModel
from repro.arch.timing import TimingModel
from repro.core.dm import DistanceMatrix
from repro.core.encoding import best_encoding
from repro.core.engine import FeReX
from repro.core.feasibility import find_min_cell, iter_solutions
from repro.devices.tech import TechConfig, VariationParams
from repro.eval.gpu_model import GPUCostModel
from repro.eval.montecarlo import MonteCarloKNNAccuracy, MonteCarloSearch


def measure_fig6():
    """Energy per bit, delay and ScL share at three sweep corners
    (K = 3 FeFETs per 2-bit Hamming cell, 30 % activity)."""
    floats = {}
    for rows, dims in ((16, 16), (64, 64), (512, 128)):
        cols = dims * 3
        energy_model = EnergyModel(rows, cols)
        timing = TimingModel(rows, cols).search_timing()
        unit = energy_model.tech.cell.unit_current
        breakdown = energy_model.search_energy(
            np.full(rows, 0.3 * dims * 2 * unit),
            np.ones(cols, dtype=int),
            timing,
        )
        floats[f"{rows}x{dims}"] = [
            energy_model.energy_per_bit(breakdown, dims, 2),
            timing.total,
            timing.scl_fraction,
        ]
    return {"exact": {}, "floats": floats}


def measure_table2():
    """Algorithm 1's minimal 2-bit Hamming cell, and the regenerated
    encoding read back through the analog array."""
    dm = DistanceMatrix.from_metric("hamming", bits=2)
    result = find_min_cell(dm, (1, 2))
    encoding = best_encoding(dm, result.k, (1, 2), "hamming", 2)
    engine = FeReX(metric="hamming", bits=2, dims=1)
    engine.program(np.array([[0], [1], [2], [3]]))
    fefet = engine.tech.fefet
    return {
        "exact": {
            "k": result.k,
            "ladder_levels": encoding.n_ladder_levels,
            "max_vds_multiple": encoding.max_vds_multiple,
            "n_solutions": sum(1 for _ in iter_solutions(dm, 3, (1, 2))),
            "store_levels": [
                list(encoding.store_levels_for(v)) for v in range(4)
            ],
            "search_multiples": [
                list(encoding.search_voltages_for(v, fefet)[1])
                for v in range(4)
            ],
        },
        "floats": {
            "search_voltages": [
                list(encoding.search_voltages_for(v, fefet)[0])
                for v in range(4)
            ],
            "array_readings": [
                engine.search([q]).hardware_distances.tolist()
                for q in range(4)
            ],
            "array_vth": engine.array.vth.tolist(),
            "array_resistance": engine.array.resistance.tolist(),
        },
    }


def measure_fig7_montecarlo():
    """Worst-case probes under the paper's sampled variation — the
    serial float-physics path (seeded engines never compile a kernel)."""
    mc = MonteCarloSearch(dims=64, bits=2, n_far=15, n_runs=12, seed0=0)
    results = mc.sweep([(1, 2), (5, 6)])
    return {
        "exact": {
            f"successes_{r.d_near}v{r.d_far}": r.successes for r in results
        },
        "floats": {
            f"margins_{r.d_near}v{r.d_far}": r.margins for r in results
        },
    }


def measure_fig7_device_state():
    """One seeded array end to end: the derived device state a search
    reads, the serial reading and the batch pipeline over it."""
    rng = np.random.default_rng(5)
    engine = FeReX(metric="manhattan", bits=2, dims=12, seed=9)
    engine.program(rng.integers(0, 4, size=(8, 12)))
    queries = rng.integers(0, 4, size=(5, 12))
    batch = engine.search_k_batch(queries, 3)
    serial = engine.search(queries[0])
    array = engine.array
    return {
        "exact": {
            "kernel_compiled": engine.quantized_kernel() is not None,
            "batch_winners": batch.winners.tolist(),
            "serial_winner": serial.winner,
            "levels_row0": array.levels[0].tolist(),
        },
        "floats": {
            "vth_row0": array.vth[0, :9].tolist(),
            "vth_sum": float(array.vth.sum()),
            "resistance_row0": array.resistance[0, :9].tolist(),
            "resistance_sum": float(array.resistance.sum()),
            "batch_row_units": batch.row_units.tolist(),
            "serial_row_units": serial.hardware_distances.tolist(),
            "serial_latency": serial.latency,
            "serial_energy": serial.energy,
        },
    }


def measure_fig7_knn_degradation():
    """End-to-end KNN, software vs seeded hardware, through the index
    (the batched float-table scorer)."""
    ds = make_mnist(train_size=96, test_size=24, seed=17)
    mc = MonteCarloKNNAccuracy(metric="manhattan", bits=2, k=1, seed=23)
    result = mc.compare(
        quantize_features(ds.train_x, 2),
        ds.train_y,
        quantize_features(ds.test_x, 2),
        ds.test_y,
    )
    return {
        "exact": {
            "software_accuracy": result.software_accuracy,
            "hardware_accuracy": result.hardware_accuracy,
            "prediction_agreement": result.prediction_agreement,
        },
        "floats": {},
    }


def measure_ablation_variation():
    """Worst-case accuracy against a scale on every variation source."""
    base = VariationParams()
    exact = {}
    for scale in (0.0, 1.0, 3.0):
        params = dataclasses.replace(
            base,
            sigma_vth=base.sigma_vth * scale,
            sigma_r_rel=base.sigma_r_rel * scale,
            sigma_lta_offset=base.sigma_lta_offset * scale,
            sigma_row_gain=base.sigma_row_gain * scale,
        )
        tech = dataclasses.replace(TechConfig(), variation=params)
        mc = MonteCarloSearch(
            dims=64, bits=2, n_far=15, n_runs=10, seed0=0, tech=tech
        )
        exact[f"successes_{scale:.0f}x"] = mc.run_pair(5, 6).successes
    return {"exact": exact, "floats": {}}


def measure_fig8a():
    """HDC accuracy per FeReX metric: software AM on two datasets, and
    the array-backed AM (ideal and varied devices) on one."""
    exact = {}
    for name in ("ISOLET", "MNIST"):
        ds = make_dataset(name, train_size=240, test_size=60)
        for metric, bits in (
            ("hamming", 1), ("manhattan", 2), ("euclidean", 2)
        ):
            model = HDCClassifier(
                n_features=ds.n_features,
                n_classes=ds.n_classes,
                dim=256,
                metric=metric,
                bits=bits,
                epochs=1,
                lr=0.2,
                seed=5,
            ).fit(ds.train_x, ds.train_y)
            exact[f"{name}_{metric}"] = model.score(ds.test_x, ds.test_y)
    ds = make_dataset("UCIHAR", train_size=120, test_size=40)
    for variation in (False, True):
        model = HDCClassifier(
            n_features=ds.n_features,
            n_classes=ds.n_classes,
            dim=128,
            metric="manhattan",
            bits=2,
            epochs=1,
            lr=0.2,
            backend="ferex",
            variation=variation,
            seed=5,
        ).fit(ds.train_x, ds.train_y)
        key = "varied" if variation else "ideal"
        exact[f"UCIHAR_ferex_{key}"] = model.score(ds.test_x, ds.test_y)
    return {"exact": exact, "floats": {}}


def measure_fig8bc():
    """Per-query FeReX latency / energy against the GPU roofline."""
    dim, n_classes = 256, 26
    engine = FeReX(metric="hamming", bits=1, dims=dim)
    rng = np.random.default_rng(3)
    engine.program(rng.integers(0, 2, size=(n_classes, dim)))
    search = engine.search(rng.integers(0, 2, size=dim))
    gpu = GPUCostModel()
    single = gpu.distance_search(
        1, n_classes, dim, flops_per_element=2.0, batch_size=1
    )
    batched = gpu.distance_search(
        1024, n_classes, dim, flops_per_element=2.0, batch_size=1024
    )
    return {
        "exact": {"winner": search.winner},
        "floats": {
            "latency": search.latency,
            "energy": search.energy,
            "speedup": single.time / search.latency,
            "energy_ratio": (batched.energy / 1024) / search.energy,
            "row_units": search.hardware_distances[:6].tolist(),
        },
    }


#: Generated once from the code this file guards; see the module docstring.
PINS = {
    "ablation_variation": {
        "exact": {
            "successes_0x": 10,
            "successes_1x": 10,
            "successes_3x": 0,
        },
        "floats": {},
    },
    "fig6": {
        "exact": {},
        "floats": {
            "16x16": [
                3.872795845481306e-15, 1.4439952580384244e-08,
                0.28670125870136903
            ],
            "512x128": [
                2.731305528380313e-15, 4.354462064307396e-08,
                0.7605904048297603
            ],
            "64x64": [
                2.8168278796422642e-15, 2.6909810321536976e-08,
                0.6153819043564017
            ],
        },
    },
    "fig7_device_state": {
        "exact": {
            "batch_winners": [
                [2, 7, 4],
                [0, 4, 3],
                [6, 5, 3],
                [5, 6, 3],
                [1, 7, 4],
            ],
            "kernel_compiled": False,
            "levels_row0": [
                2, 0, 2, 1, 1, 1, 0, 2, 2, 1, 1, 1, 2, 2, 0, 2, 0, 2, 2, 0, 2,
                2, 2, 0, 1, 1, 1, 0, 2, 2, 2, 2, 0, 2, 2, 0
            ],
            "serial_winner": 2,
        },
        "floats": {
            "batch_row_units": [
                [
                    19.253250723928716, 16.254301682593702, 13.712202769651526,
                    18.830945515790212, 16.110534050726542, 21.421808860827632,
                    19.12947692125691, 15.03437523676674
                ],
                [
                    9.29757082419487, 16.773265463062817, 13.403496596961375,
                    12.821715385472334, 12.092689616738781, 17.120675652214906,
                    14.273934053559698, 13.104297802780833
                ],
                [
                    14.598218178841801, 18.32467136632745, 22.071257736023668,
                    13.011047047443208, 16.361180264815435, 11.272078493770767,
                    9.969661799972426, 19.357375007636318
                ],
                [
                    17.445591675493134, 19.554171375083282, 18.456162576464617,
                    15.95361253722222, 22.545593526769164, 12.61264968167407,
                    14.810762911858939, 18.549417887091643
                ],
                [
                    15.098228705583974, 10.789140072818727, 13.38116163897884,
                    18.866606034732175, 12.195160299266462, 13.328050436670447,
                    14.548087576195254, 11.005726819453384
                ],
            ],
            "resistance_row0": [
                1080243.8200529616, 939146.4375117028, 978381.55888556,
                981463.0305878125, 820042.3538725114, 929698.4056556418,
                1062285.169827574, 1116782.6706290955, 994880.6888830685
            ],
            "resistance_sum": 288713744.5131431,
            "serial_energy": 1.0341069451761345e-12,
            "serial_latency": 1.1207281356509516e-08,
            "serial_row_units": [
                19.253250723928716, 16.254301682593702, 13.712202769651526,
                18.830945515790212, 16.110534050726542, 21.421808860827632,
                19.12947692125691, 15.03437523676674
            ],
            "vth_row0": [
                1.3566468054569245, 0.21311389498226613, 1.3105573469397194,
                0.83542966338806, 0.8617464632253728, 0.7755590058375735,
                0.2232462302599327, 1.4135503587305458, 1.3787049890052196
            ],
            "vth_sum": 273.85299057432667,
        },
    },
    "fig7_knn_degradation": {
        "exact": {
            "hardware_accuracy": 0.625,
            "prediction_agreement": 0.9583333333333334,
            "software_accuracy": 0.6666666666666666,
        },
        "floats": {},
    },
    "fig7_montecarlo": {
        "exact": {
            "successes_1v2": 12,
            "successes_5v6": 11,
        },
        "floats": {
            "margins_1v2": [
                8.497708685971142e-08, 8.1616674288799e-08,
                7.11243001586714e-08, 7.594077361265333e-08,
                6.46918439805179e-08, 7.393030644876075e-08,
                6.770546857323004e-08, 8.690782597277127e-08,
                5.997849709170795e-08, 5.89374467413181e-08,
                6.758520930085453e-08, 7.034368512003294e-08
            ],
            "margins_5v6": [
                5.123347005688811e-08, 4.2421825720847784e-08,
                5.5821791974014215e-08, 5.242011577470971e-08,
                5.844508440445591e-08, 6.454661441990788e-08,
                5.5425272641995615e-08, 2.112442821319437e-08,
                1.4727506147365078e-08, 4.573083932966533e-08,
                8.572482251012212e-09, 1.5483764506752574e-08
            ],
        },
    },
    "fig8a": {
        "exact": {
            "ISOLET_euclidean": 0.4166666666666667,
            "ISOLET_hamming": 0.3333333333333333,
            "ISOLET_manhattan": 0.36666666666666664,
            "MNIST_euclidean": 0.7166666666666667,
            "MNIST_hamming": 0.6666666666666666,
            "MNIST_manhattan": 0.7,
            "UCIHAR_ferex_ideal": 0.65,
            "UCIHAR_ferex_varied": 0.575,
        },
        "floats": {},
    },
    "fig8bc": {
        "exact": {
            "winner": 2,
        },
        "floats": {
            "energy": 2.686950806578907e-11,
            "energy_ratio": 193077.80124023405,
            "latency": 5.447710518471884e-08,
            "row_units": [
                130.0038199999964, 123.00388999999645, 118.00393999999646,
                120.00391999999646, 127.00384999999643, 129.0038299999964
            ],
            "speedup": 367.85237937264657,
        },
    },
    "table2": {
        "exact": {
            "k": 3,
            "ladder_levels": 3,
            "max_vds_multiple": 2,
            "n_solutions": 72,
            "search_multiples": [
                [1, 2, 1],
                [1, 1, 2],
                [1, 1, 1],
                [2, 1, 1],
            ],
            "store_levels": [
                [0, 2, 2],
                [1, 1, 1],
                [2, 2, 0],
                [2, 0, 2],
            ],
        },
        "floats": {
            "array_readings": [
                [
                    0.0008959406983824279, 1.0004529703491911, 1.00002,
                    2.000452970349191
                ],
                [
                    1.00002, 0.0013289110475732278, 2.00002, 1.00002
                ],
                [
                    1.0004529703491911, 2.00001, 0.0013289110475732278,
                    1.0004529703491911
                ],
                [
                    2.000452970349191, 1.0004529703491911, 1.00002,
                    0.0008959406983824279
                ],
            ],
            "array_resistance": [
                [1000000.0, 1000000.0, 1000000.0],
                [1000000.0, 1000000.0, 1000000.0],
                [1000000.0, 1000000.0, 1000000.0],
                [1000000.0, 1000000.0, 1000000.0],
            ],
            "array_vth": [
                [0.2, 1.4, 1.4],
                [0.8, 0.8, 0.8],
                [1.4, 1.4, 0.2],
                [1.4, 0.2, 1.4],
            ],
            "search_voltages": [
                [
                    -0.09999999999999998, 0.5, 1.0999999999999999
                ],
                [0.5, 0.5, 0.5],
                [
                    1.0999999999999999, 1.0999999999999999,
                    -0.09999999999999998
                ],
                [
                    0.5, -0.09999999999999998, 1.0999999999999999
                ],
            ],
        },
    },
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_paper_number_pinned(name):
    measured = globals()[f"measure_{name}"]()
    pinned = PINS[name]
    assert measured["exact"] == pinned["exact"]
    assert measured["floats"].keys() == pinned["floats"].keys()
    for key, value in pinned["floats"].items():
        assert np.asarray(measured["floats"][key]) == pytest.approx(
            np.asarray(value), rel=1e-12, abs=0.0
        ), key


def test_every_measure_is_pinned():
    measures = {
        name[len("measure_"):]
        for name in globals()
        if name.startswith("measure_")
    }
    assert measures == set(PINS)
