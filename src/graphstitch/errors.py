"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed edge-list input; message carries the offending line number."""


class InvalidNodeSet(ValueError):
    """Node subset handed to induced_subgraph is empty, duplicated, or out of range."""


class InvalidParameter(ValueError):
    """Out-of-range argument (k > n, delta outside (0,1), bad fraction, ...)."""


class ConfigError(ValueError):
    """Pipeline config file or CLI override failed validation, or a JSON
    artifact (config, checkpoint, schedule, corpus stats, assembly report)
    is not one UTF-8 JSON object without a repeated key."""


class DegeneratePosterior(RuntimeError):
    """Reverse-step posterior had zero total mass for some element."""


class StalledAssembly(RuntimeError):
    """Edge-union assembly made no progress for too many consecutive subgraphs."""

    def __init__(self, msg, edges=0, subgraphs_used=0):
        super().__init__(msg)
        self.edges = edges
        self.subgraphs_used = subgraphs_used


class NegativeSamplingExhausted(RuntimeError):
    """Rejection sampler for non-edges hit its draw budget (graph too dense)."""


class DegenerateDegrees(ValueError):
    """Degree sequence unusable for a power-law fit."""
