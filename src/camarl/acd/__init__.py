from camarl.acd.dataset import (
    POLY_ORDER, SeriesSample, collect_dataset, episode_to_sample,
    load_dataset, minmax_normalize, preprocess_series, save_dataset,
    savgol_smooth, sg_window, split_dataset)
from camarl.acd.inference import evaluate_accuracy, make_bits_fn, predict_c
from camarl.acd.model import AcdModel, ordered_pairs
from camarl.acd.training import (
    AcdResult, ElboTerms, elbo_loss, load_acd, save_acd, sigma_for,
    train_acd)

__all__ = [
    "AcdModel", "AcdResult", "ElboTerms", "POLY_ORDER", "SeriesSample",
    "collect_dataset", "elbo_loss", "episode_to_sample",
    "evaluate_accuracy", "load_acd", "load_dataset", "make_bits_fn",
    "minmax_normalize", "save_dataset",
    "ordered_pairs", "predict_c", "preprocess_series",
    "save_acd", "savgol_smooth", "sg_window", "sigma_for", "split_dataset",
    "train_acd",
]
