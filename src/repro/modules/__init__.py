"""Open MPI-style collective component modules.

HAN does not implement collective algorithms itself; it *composes*
existing modules (paper section III): "it selects the proper collective
frameworks as submodules to utilize the hardware capabilities of each
level".  The four submodules HAN uses, the GPU submodule of the paper's
future work, and the flat default:

========  =======================  ==========================================
module    scope                    character
========  =======================  ==========================================
`tuned`   any (flat baseline)      default Open MPI decision rules [29]
`libnbc`  inter-node, nonblocking  round-based schedules, no alg choice,
                                   no AVX reductions
`adapt`   inter-node, nonblocking  event-driven [28]; chain/binary/binomial,
                                   tunable segment size, AVX reductions
`sm`      intra-node               bounce-buffer shared memory; tiny setup,
                                   double copies -> best for small messages
`solo`    intra-node               one-sided single-copy, chunk-parallel AVX
                                   reductions; window-sync setup -> best for
                                   large messages
`gpu`     intra-node, GPU nodes    NVLink device collectives, PCIe host
                                   staging; launch latency per copy step
========  =======================  ==========================================

`sm`, `solo` and `gpu` are transport policies over one shared-memory
call driver, :class:`~repro.modules.shm_common.ShmModule`.
"""

from repro.modules.base import CollModule, NotSupportedError
from repro.modules.tuned import TunedModule
from repro.modules.libnbc import LibnbcModule
from repro.modules.adapt import AdaptModule
from repro.modules.sm import SMModule
from repro.modules.solo import SoloModule
from repro.modules.gpu import GpuModule

INTER_MODULES = {"libnbc": LibnbcModule, "adapt": AdaptModule}
INTRA_MODULES = {"sm": SMModule, "solo": SoloModule, "gpu": GpuModule}
ALL_MODULES = {
    "tuned": TunedModule,
    **INTER_MODULES,
    **INTRA_MODULES,
}


def make_module(name: str, **kwargs) -> CollModule:
    """Instantiate a collective module by name."""
    try:
        cls = ALL_MODULES[name]
    except KeyError:
        raise ValueError(
            f"unknown module {name!r}; available: {sorted(ALL_MODULES)}"
        ) from None
    return cls(**kwargs)


__all__ = [
    "ALL_MODULES",
    "AdaptModule",
    "CollModule",
    "GpuModule",
    "INTER_MODULES",
    "INTRA_MODULES",
    "LibnbcModule",
    "NotSupportedError",
    "SMModule",
    "SoloModule",
    "TunedModule",
    "make_module",
]
