"""Gesture identification and recognition on wearable IMU streams.

Two stages over 9-channel inertial data: recurrence-based features locate
gesture windows inside continuous recordings, and a one-against-one SVM
(or a random-forest baseline) classifies the cut segments into 12 hand
gestures. Includes a synthetic corpus generator, leave-one-subject-out
evaluation, permutation feature importance, and a CLI front end.
"""

from .errors import ConvergenceError, GestureKitError, ParseError, ValidationError
from .imu import (ADL_LABEL, CHANNELS, GESTURES, ImuStream, LabeledDataset,
                  LabeledInterval, extract_segment, parse_imu_csv,
                  parse_label_csv, write_imu_csv, write_label_csv)
from .rqa import (EmbeddingConfig, RecurrencePlot, RpConfig, RqaFeatureRow,
                  RqaWindowConfig, ami_curve, estimate_delay,
                  estimate_dimension, fnn_fraction, recurrence_plot,
                  recurrence_rate, time_delay_embed, transitivity,
                  windowed_rqa)
from .features import (FeatureRegistry, Scaler, feature_vector,
                       featurize_segments, read_feature_csv, standardize,
                       write_feature_csv)
from .svm import (PRESETS, BinarySvmModel, KernelConfig, OvoSvmModel,
                  load_model, ovo_predict, ovo_train, save_model, smo_train)
from .forest import ForestConfig, forest_train_predict
from .pipeline import (CentroidTrainer, EvaluationReport, ForestTrainer,
                       IdentificationConfig, ImportanceResult, SvmTrainer,
                       balanced_accuracy, identify_segments, label_windows,
                       loso_evaluate, noise_augment, permutation_importance,
                       select_features, train_identifier)
from .synth import (SubjectProfile, SynthConfig, SynthResult,
                    gesture_trajectory, generate_dataset, generate_subject,
                    trajectory_to_imu, write_dataset)

__version__ = "0.1.0"
