"""Synthetic stand-ins for the paper's three real-life graphs."""

from .base import Dataset
from . import dbpedia_like, pokec_like, yago_like

__all__ = ["Dataset", "dbpedia_like", "pokec_like", "yago_like"]
