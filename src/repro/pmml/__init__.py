"""PMML-style model persistence (system S10, paper section 4).

"A related effort, called Predictive Model Markup Language (PMML), provides
an open standard for how models should be persisted in XML ... We are
currently working with the PMML group to use PMML format as an open
persistence format."

``writer.to_pmml`` renders a trained model as a PMML-inspired XML document:
a DataDictionary / MiningSchema derived from the model definition, a
model-family-specific body (TreeModel, NaiveBayesModel, ClusteringModel,
RegressionModel, AssociationModel, SequenceModel), and an ``Extension``
block carrying the complete provider state — the attribute space's
``to_json`` and the mining service's own ``state()`` — so that
``reader.read_pmml`` round-trips the model losslessly, for a plug-in
service as for a built-in: the "model sharing" the paper wants.
"""

from repro.pmml.writer import to_pmml, write_pmml_file
from repro.pmml.reader import read_pmml, read_pmml_file

__all__ = ["to_pmml", "write_pmml_file", "read_pmml", "read_pmml_file"]
