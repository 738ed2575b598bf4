"""CFG sharpening from the points-to pass (PR 4).

For every workload, compile base vs ``optimize=True`` (the
function-pointer points-to pass: singleton devirtualization + target
hints) and quantify what the pass buys:

* equivalence-class count (EQCs) and the median/max class size;
* AIR at six decimals plus the mean resolved-target-set size (the
  four-decimal AIR of Sec. 8.3 hides these deltas);
* dynamic TxCheck counts (Bary reads executed by the VM) before/after
  — devirtualized sites stop paying the Fig. 4 check transaction.

Both builds must verify and run byte-identically: the pass is an
optimization, not a policy change.  Full dynamic runs for all twelve
workloads with ``REPRO_FULL=1``; the default subset keeps CI short.
"""

import statistics

from benchmarks.conftest import selected_benchmarks, write_result
from repro.analysis.dataflow import devirtualize_module
from repro.baselines.policies import mcfi_policy
from repro.cfg.generator import generate_cfg
from repro.analysis.binverify import verify_module
from repro.metrics.air import air_of_policy
from repro.metrics.cfgstats import profile
from repro.mir.lowering import lower_unit
from repro.runtime.runtime import Runtime
from repro.build import build_program
from repro.toolchain import frontend
from repro.workloads.spec import BENCHMARKS, workload


def _static_row(program):
    aux = program.module.aux
    cfg = generate_cfg(aux)
    prof = profile(aux, cfg)
    air = air_of_policy(mcfi_policy(aux), len(program.module.code))
    return {
        "eqcs": prof.eqcs,
        "class_med": prof.class_size_spread[1],
        "class_max": prof.class_size_spread[2],
        "air": air.air,
        "mean_targets": air.mean_targets,
        "ibs": prof.ibs,
        "total_targets": sum(len(t)
                             for t in cfg.branch_targets.values()),
    }


def _collect(names, dynamic):
    rows = {}
    for name in names:
        sources = {name: workload(name).source}
        base = build_program(sources, mcfi=True).program
        opt = build_program(sources, mcfi=True,
                            devirtualize=True).program
        verify_module(opt.module)   # rewritten modules still verify

        devirt = len(devirtualize_module(
            lower_unit(frontend(workload(name).source,
                                name=name))).devirtualized)

        row = {"devirt": devirt,
               "base": _static_row(base), "opt": _static_row(opt)}
        if name in dynamic:
            res_base = Runtime(base).run()
            res_opt = Runtime(opt).run()
            assert res_base.output == res_opt.output, name
            assert res_base.exit_code == res_opt.exit_code, name
            row["tx_base"] = res_base.tx_checks
            row["tx_opt"] = res_opt.tx_checks
        rows[name] = row
    return rows


def test_cfg_precision(benchmark, benchmarks_list):
    dynamic = set(benchmarks_list)
    rows = benchmark.pedantic(
        lambda: _collect(BENCHMARKS, dynamic), rounds=1, iterations=1)

    lines = [f"{'benchmark':12s} {'devirt':>6s} "
             f"{'EQCs':>9s} {'cls med/max':>11s} "
             f"{'AIR':>19s} {'mean tgts':>13s} {'TxChecks':>15s}"]
    for name in BENCHMARKS:
        row = rows[name]
        base, opt = row["base"], row["opt"]
        tx = (f"{row['tx_base']:>7d}->{row['tx_opt']:<7d}"
              if "tx_base" in row else f"{'-':>15s}")
        lines.append(
            f"{name:12s} {row['devirt']:6d} "
            f"{base['eqcs']:4d}->{opt['eqcs']:<4d} "
            f"{base['class_med']:2d}/{base['class_max']:<2d}->"
            f"{opt['class_med']:2d}/{opt['class_max']:<2d} "
            f"{base['air']:.6f}->{opt['air']:.6f} "
            f"{base['mean_targets']:5.2f}->{opt['mean_targets']:<5.2f} "
            f"{tx}")
    devirted = [n for n in BENCHMARKS if rows[n]["devirt"] > 0]
    lines.append("")
    lines.append(f"workloads with >=1 devirtualized site: "
                 f"{len(devirted)}/12 ({', '.join(devirted)})")
    write_result("cfg_precision", "\n".join(lines))

    # the paper-level claims this PR rides on
    assert len(devirted) >= 3
    for name in devirted:
        base, opt = rows[name]["base"], rows[name]["opt"]
        assert opt["eqcs"] >= base["eqcs"] - 1  # never merges classes
        # devirtualized sites leave the indirect-branch population and
        # hints only shrink sets: the attack surface strictly narrows
        # (the per-site *mean* may rise — the removed sites are the
        # small ones)
        assert opt["ibs"] < base["ibs"]
        assert opt["total_targets"] < base["total_targets"]
    # dynamic checks never increase; strictly fewer where devirtualized
    for name in dynamic:
        row = rows[name]
        assert row["tx_opt"] <= row["tx_base"]
        if row["devirt"]:
            assert row["tx_opt"] < row["tx_base"]


def test_devirtualization_speed(benchmark):
    source = workload("bzip2").source
    checked = frontend(source, name="bzip2")

    def run():
        return devirtualize_module(lower_unit(checked))

    report = benchmark(run)
    assert len(report.devirtualized) >= 1


def test_class_size_median_sanity():
    """Median/max class sizes come from the same spread the ablation
    bench reports — sanity-check the two agree for one workload."""
    program = build_program(
        {"bzip2": workload("bzip2").source}, mcfi=True).program
    aux = program.module.aux
    prof = profile(aux, generate_cfg(aux))
    sizes = {}
    for ecn in generate_cfg(aux).tary_ecns.values():
        sizes[ecn] = sizes.get(ecn, 0) + 1
    values = sorted(sizes.values())
    assert prof.class_size_spread[2] == values[-1]
    assert prof.class_size_spread[1] == int(statistics.median(values))
