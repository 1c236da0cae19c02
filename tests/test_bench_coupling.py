"""The benchmark's tracer still reaches every layer of a training run.

perfbench wraps the package's functions at the names their callers look
them up by, and walks the loss that `batch_nll` returns to count its graph
nodes. This runs one tiny `train_defmodel` under that tracer, reading the
benchmark's code without changing it, so that a renamed target or a loss
the node count cannot walk fails here and not only in a benchmark run.
"""

import sys
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from defbench.report import LayerCounters  # noqa: E402
from defbench.trace import Tracer  # noqa: E402

from defmod import defgen  # noqa: E402
from defmod.matcher import SenseDefPair  # noqa: E402
from defmod.textprep import Vocabulary  # noqa: E402


def test_tracer_counts_every_layer_of_a_training_run():
    vocab = Vocabulary({"cat": 5, "dog": 4, "small": 3, "animal": 2, "a": 6})
    cfg = defgen.DefModelConfig(vocab, defgen.build_char_vocab(["cat", "dog"]), condition_dim=4,
                                hidden=5, token_embedding_dim=6, batch_size=2, max_epochs=1,
                                seed=1)
    pairs = [SenseDefPair("cat", 0, np.linspace(-0.2, 0.2, 4), ("a", "small", "animal")),
             SenseDefPair("dog", 0, np.linspace(0.3, -0.1, 4), ("a", "dog"))]
    tracer = Tracer()
    counters = LayerCounters()
    counters.install(tracer)
    with tracer.active():
        defgen.train_defmodel(defgen.init_model(cfg), pairs)
    calls = Counter(span.name for span in tracer.spans)
    for name in ("neural.forward", "neural.backward", "neural.lstm_step", "neural.char_cnn",
                 "neural.softmax_ce", "neural.adam"):
        assert calls[name] >= 1, name
    assert counters.first_step_nodes > 0
    # Every target is restored once the tracer is uninstalled.
    assert not hasattr(defgen.batch_nll, "__wrapped__")
