"""The timing model's traffic profiles against the simulator's counters.

Every modelled speedup comes from :meth:`Application.profile`.  This pins
each profile to the :class:`~repro.clsim.executor.ExecutionStats` of the
kernel the compiler path builds, launched on the codegen backend: every
app x every row and stencil candidate of ``default_space()`` x three work
groups, plus each app's accurate baseline at those work groups.  Each
quantity must be equal exactly:

* global element loads per group (DRAM elements plus cached accesses);
* stores per group;
* local reads and local writes per work-item;
* barriers per group.

A baseline that stages its input in local memory (median) is the paper's
optimised baseline, so it is compared against
:meth:`~repro.core.perforator.KernelPerforator.optimize_with_local_memory`,
not against the unstaged accurate kernel.

Left out of the pin:

* private accesses — the simulator counts none for kernellang kernels
  (both backends report 0 for median's ``float window[9]``, while the model
  charges 18 per item);
* flops, which the simulator does not count;
* column and random schemes, which have no compiled path.
"""

import pytest

from repro.apps import TABLE1_ORDER, get_application
from repro.autotune.space import config_key, default_space
from repro.clsim import Executor, NDRange
from repro.core import ACCURATE_CONFIG
from repro.core.perforator import build_kernel
from repro.core.schemes import KIND_ROWS, KIND_STENCIL
from repro.data import generate_image, hotspot_single

SIZE = 32
WORK_GROUPS = ((8, 8), (32, 8), (16, 16))


def _inputs_for(app_name):
    if app_name == "hotspot":
        return hotspot_single(size=SIZE, seed=7)
    return generate_image("natural", size=SIZE, seed=7)


def _cases():
    cases = []
    for name in TABLE1_ORDER:
        app = get_application(name)
        configs = [
            config
            for config in default_space().configurations(app.halo, (SIZE, SIZE))
            if config.scheme.kind in (KIND_ROWS, KIND_STENCIL) and config.work_group in WORK_GROUPS
        ]
        configs += [ACCURATE_CONFIG.with_work_group(wg) for wg in WORK_GROUPS]
        cases += [pytest.param(name, c, id=f"{name}-{config_key(c)}") for c in configs]
    return cases


CASES = _cases()


@pytest.fixture(scope="module")
def executor():
    return Executor(backend="codegen")


def _kernel(app, config):
    if config.is_accurate and app.baseline_uses_local_memory:
        perforator = app.perforator()
        return perforator.optimize_with_local_memory(config.work_group).executable()
    return build_kernel(app.kernel_source(), config)


def _modelled(app, config, global_size):
    profile, _ = app.profile(config, global_size)
    return {
        "global loads per group": sum(
            t.elements_per_group() + t.cached_accesses_per_group
            for t in profile.traffic
            if not t.is_store
        ),
        "stores per group": sum(t.elements_per_group() for t in profile.traffic if t.is_store),
        "local reads per item": profile.local_reads_per_item,
        "local writes per item": profile.local_writes_per_item,
        "barriers per group": profile.barriers_per_group,
    }


def _counted(executor, app, config, inputs):
    global_size = app.global_size(inputs)
    args = app.kernel_args(inputs, app.output_buffer(inputs))
    stats = executor.run(_kernel(app, config), NDRange(global_size, config.work_group), args)
    groups, items = stats.work_groups, stats.work_items
    return {
        "global loads per group": stats.global_counters.reads / groups,
        "stores per group": stats.global_counters.writes / groups,
        "local reads per item": stats.local_counters.reads / items,
        "local writes per item": stats.local_counters.writes / items,
        "barriers per group": stats.barriers / groups,
    }


def test_every_compiled_candidate_and_baseline_is_covered():
    # Per work group: 3 row rates x {NN, LI} for all 6 apps, the stencil for
    # the 5 apps with a halo, and the 6 baselines.
    assert len(CASES) == len(WORK_GROUPS) * (6 * 3 * 2 + 5 + 6)


@pytest.mark.parametrize("app_name, config", CASES)
def test_profile_equals_simulator_counters(executor, app_name, config):
    app = get_application(app_name)
    inputs = _inputs_for(app_name)
    modelled = _modelled(app, config, app.global_size(inputs))
    assert modelled == _counted(executor, app, config, inputs)
