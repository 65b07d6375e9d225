"""Sparsified generalized graph diffusion: transform a weighted graph into a
denoised, re-sparsified and renormalized one, analyze the spectral effect,
and evaluate the clustering impact on synthetic planted partitions."""

from .coeffs import (Explicit, Heat, Ppr, closed_form_converges, closed_form_xi,
                     theta, theta_tail, theta_to_xi, theta_vector, truncation_k,
                     xi_to_theta)
from .engine import (DiffusionMatrix, Exact, Push, PushColumn, Series, diffuse,
                     diffuse_push_ppr)
from .errors import ComputeError, InputError
from .graph import (RandomWalk, SparseGraph, Symmetric, SymmetricSelfLoop,
                    TransitionMatrix, largest_connected_component, load_edge_list,
                    load_graph, read_edge_list, save_edge_list, transition_matrix)
from .cluster import (ClusteringResult, EvalReport, SbmSpec, eval_gdc_clustering,
                      generate_sbm, hungarian_accuracy, kmeans, spectral_cluster,
                      spectral_embedding)
from .sparsify import (Gdc, PostProcess, TargetDegree, Threshold, TopK,
                       diffuse_graph, epsilon_for_degree, postprocess, sparsify)
from .spectral import (SpectrumDelta, SpectrumReport, apply_poly_filter, eigen,
                       eigenvalue_map, filter_response_curve, laplacian,
                       spectrum_compare, symmetric_operator)

__version__ = "0.1.0"
