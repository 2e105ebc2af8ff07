"""graphstitch: synthesize a large graph from a single observed one.

The pipeline samples small node-ID-labeled subgraphs from the observation,
trains a discrete denoising diffusion model over them, then generates
subgraphs and unions their edges back into one synthetic graph whose
structure and link-prediction utility can be compared to the original.
"""

import os

# Each CLI command is a short process, and OpenBLAS's idle worker thread
# spins for 2**28 cycles after start-up and after every matrix product. At
# 4, OpenBLAS's floor, the worker sleeps instead; both threads stay, so
# outputs keep their bytes. On a 2-core box the benchmark's six-command
# chain on a Chung-Lu n=1000 graph went from 3.85 to 2.56 s of CPU (median
# of 10 runs each) at 2.56 against 2.51 s of wall time. Pinning one thread
# (OPENBLAS_NUM_THREADS=1) saves as much CPU but changes train's bytes at
# n~1000 and made a train step at n~10k 15% slower. OpenBLAS reads this
# once, when numpy loads it, so it is set before the first numpy import; a
# value already in the environment wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .assembly import SynthAccumulator, assemble, generate_subgraph, progressive_assemble
from .denoiser import DenoiserParams, TrainConfig, grad, loss, predict, train
from .diffusion import (NoiseSchedule, NoisySample, build_schedule, forward_noise,
                        posterior_step, prior_sample, reverse_step)
from .errors import (ConfigError, DegenerateDegrees, DegeneratePosterior,
                     InvalidNodeSet, InvalidParameter, NegativeSamplingExhausted,
                     ParseError, StalledAssembly)
from .graphs import (Graph, graph_summary, induced_subgraph,
                     largest_connected_component, load_edge_list,
                     load_edge_list_file, save_edge_list)
from .linkpred import (EmbeddingModel, EvalSet, build_eval_set, evaluate,
                       train_link_predictor)
from .metrics import (StatsReport, characteristic_path_length, count_squares,
                      count_triangles, degree_stats, power_law_exponent,
                      stats_report)
from .pipeline import PipelineConfig, load_config
from .sampling import (SampleCorpus, SubgraphSample, build_corpus,
                       required_sample_count, sample_ego, sample_random_walk,
                       sample_uniform)
from .sbm import sbm_graph

__version__ = "0.1.0"
