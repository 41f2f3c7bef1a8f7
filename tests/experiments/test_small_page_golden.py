"""Table I's page-lifetime loop on a small page, against recorded numbers.

``test_results_full.py`` checks the paper artefact, but only on the native
backend (it takes 20 s on numpy).  This runs every Table I scheme (the MFCs
at K=3) on a 509-bit page for three erase cycles, once through the scalar
simulator and once through the batched one over three lanes, and compares
what Table I and Figs. 15 and 16 are made of: each lane's writes per cycle,
the mean fraction of cells each update raised, and the cell levels at each
erase.  ``GOLDEN`` was recorded before the page program reported the levels
it wrote and before datawords were read from the raw PCG64 stream, so it
pins both to the counts and draws they replaced.  The file is one of the
kernel tests (the Makefile's ``KERNEL_TESTS``), so it runs once per backend.
"""

from __future__ import annotations

import pytest

from repro.core import BatchLifetimeSimulator, LifetimeSimulator, make_scheme
from repro.experiments.table1 import TABLE1_SCHEMES

PAGE_BITS, CYCLES = 509, 3

#: scheme -> (scalar run with seed 2016, batched run with seeds 2016, 7, 8),
#: each (writes per cycle by lane, Fig. 15's fraction by update number,
#: Fig. 16's level counts).
GOLDEN = {
    'mfc-1/2-1bpc':
        ((((15, 14, 14),),
          {1: 0.13806706114398423,
           2: 0.13214990138067062,
           3: 0.13609467455621302,
           4: 0.14201183431952663,
           5: 0.15581854043392504,
           6: 0.15384615384615385,
           7: 0.15187376725838264,
           8: 0.14595660749506903,
           9: 0.14595660749506903,
           10: 0.15384615384615385,
           11: 0.15384615384615385,
           12: 0.14792899408284024,
           13: 0.16962524654832348,
           14: 0.15976331360946747,
           15: 0.21893491124260356},
          [7, 84, 237, 179]),
         (((15, 14, 14), (15, 15, 15), (15, 14, 14)),
          {1: 0.13675213675213677,
           2: 0.13675213675213677,
           3: 0.1413543721236029,
           4: 0.14661406969099275,
           5: 0.15253122945430642,
           6: 0.15384615384615385,
           7: 0.15121630506245892,
           8: 0.1446416831032216,
           9: 0.1433267587113741,
           10: 0.14990138067061143,
           11: 0.14990138067061143,
           12: 0.1492439184746877,
           13: 0.1663379355687048,
           14: 0.16173570019723865,
           15: 0.1834319526627219},
          [30, 257, 634, 600])),
    'mfc-1/2-2bpc':
        ((((4, 4, 4),),
          {1: 0.2938856015779093,
           2: 0.30966469428007887,
           3: 0.3155818540433925,
           4: 0.3609467455621302},
          [54, 169, 140, 144]),
         (((4, 4, 4), (4, 4, 4), (3, 4, 4)),
          {1: 0.28533859303090076,
           2: 0.32084155161078237,
           3: 0.32807363576594345,
           4: 0.3653846153846154},
          [182, 502, 414, 423])),
    'mfc-2/3':
        ((((7, 6, 7),),
          {1: 0.20512820512820515,
           2: 0.20907297830374752,
           3: 0.2504930966469428,
           4: 0.23076923076923075,
           5: 0.2504930966469428,
           6: 0.22485207100591717,
           7: 0.21005917159763315},
          [64, 190, 183, 70]),
         (((7, 6, 7), (6, 6, 7), (6, 7, 6)),
          {1: 0.21170282708744248,
           2: 0.21170282708744248,
           3: 0.22682445759368836,
           4: 0.22485207100591711,
           5: 0.22945430637738332,
           6: 0.2314266929651545,
           7: 0.22337278106508876},
          [219, 600, 523, 179])),
    'mfc-3/4':
        ((((7, 6, 6),),
          {1: 0.2406311637080868,
           2: 0.24852071005917162,
           3: 0.23471400394477318,
           4: 0.2504930966469428,
           5: 0.24260355029585798,
           6: 0.25443786982248523,
           7: 0.2781065088757396},
          [71, 163, 189, 84]),
         (((7, 6, 6), (6, 5, 6), (6, 5, 5)),
          {1: 0.23865877712031558,
           2: 0.24917817225509534,
           3: 0.2491781722550953,
           4: 0.2511505588428665,
           5: 0.2511505588428665,
           6: 0.2514792899408284,
           7: 0.2781065088757396},
          [264, 534, 516, 207])),
    'mfc-4/5':
        ((((5, 6, 6),),
          {1: 0.24852071005917162,
           2: 0.2682445759368836,
           3: 0.23471400394477318,
           4: 0.2642998027613412,
           5: 0.2564102564102564,
           6: 0.26331360946745563},
          [102, 151, 179, 75]),
         (((5, 6, 6), (6, 5, 6), (6, 6, 6)),
          {1: 0.24194608809993426,
           2: 0.2590401051939513,
           3: 0.24589086127547669,
           4: 0.25969756738987504,
           5: 0.26495726495726496,
           6: 0.29078613693998306},
          [274, 455, 553, 239])),
    'redundancy-1/2':
        ((((2, 2, 2),), {}, []), (((2, 2, 2), (2, 2, 2), (2, 2, 2)), {}, [])),
    'uncoded':
        ((((1, 1, 1),), {}, []), (((1, 1, 1), (1, 1, 1), (1, 1, 1)), {}, [])),
    'wom':
        ((((2, 2, 2),), {1: 0.7495069033530571, 2: 0.7731755424063117}, [28, 186, 189, 104]),
         (((2, 2, 2), (2, 2, 2), (2, 2, 2)),
          {1: 0.744904667981591, 2: 0.7521367521367521},
          [85, 595, 551, 290])),
}


def _summary(result):
    trace = result.trace
    return (
        result.writes_per_cycle_by_lane,
        trace.increment_fraction_by_update(),
        trace.level_histogram(normalize=False).tolist(),
    )


@pytest.mark.parametrize("name", TABLE1_SCHEMES)
def test_lifetime_runs_match_the_recorded_ones(name) -> None:
    kwargs = {"constraint_length": 3} if name.startswith("mfc") else {}
    scheme = make_scheme(name, PAGE_BITS, **kwargs)
    scalar = LifetimeSimulator(scheme, seed=2016).run(cycles=CYCLES)
    batched = BatchLifetimeSimulator(scheme, seeds=[2016, 7, 8]).run(cycles=CYCLES)
    assert (_summary(scalar), _summary(batched)) == GOLDEN[name]
